package runctl

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTokenFirstCancelWins(t *testing.T) {
	var tok Token
	if tok.Cancelled() || tok.Reason() != ReasonNone {
		t.Fatalf("zero token should not be cancelled")
	}
	if !tok.Cancel(ReasonCancelled) {
		t.Fatalf("first Cancel should win")
	}
	if tok.Cancel(ReasonDeadline) {
		t.Fatalf("second Cancel should lose")
	}
	if got := tok.Reason(); got != ReasonCancelled {
		t.Fatalf("reason = %v, want cancelled", got)
	}
}

func TestTokenNilSafe(t *testing.T) {
	var tok *Token
	if tok.Cancel(ReasonCancelled) || tok.Cancelled() || tok.Reason() != ReasonNone {
		t.Fatalf("nil token must be inert")
	}
	var w *Watchdog
	w.Stop() // must not panic
}

func TestTokenConcurrentCancel(t *testing.T) {
	var tok Token
	var wg sync.WaitGroup
	wins := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if tok.Cancel(Reason(1 + i%5)) {
				wins[i] = 1
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != 1 {
		t.Fatalf("exactly one concurrent Cancel should win, got %d", total)
	}
	if !tok.Cancelled() {
		t.Fatalf("token should be cancelled")
	}
}

func TestWatchdogFires(t *testing.T) {
	var tok Token
	w := Watch(&tok, time.Millisecond)
	defer w.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for !tok.Cancelled() {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog did not fire")
		}
		time.Sleep(time.Millisecond)
	}
	if got := tok.Reason(); got != ReasonDeadline {
		t.Fatalf("reason = %v, want deadline-exceeded", got)
	}
}

func TestWatchdogStop(t *testing.T) {
	var tok Token
	w := Watch(&tok, 50*time.Millisecond)
	w.Stop()
	time.Sleep(80 * time.Millisecond)
	if tok.Cancelled() {
		t.Fatalf("stopped watchdog must not cancel")
	}
	if Watch(&tok, 0) != nil {
		t.Fatalf("non-positive limit should return an inert watchdog")
	}
}

func TestPanicErrorCapture(t *testing.T) {
	var pe *PanicError
	func() {
		defer func() {
			if r := recover(); r != nil {
				pe = NewPanicError(r, 3)
			}
		}()
		panic("boom")
	}()
	if pe == nil || pe.Value != "boom" || pe.Worker != 3 {
		t.Fatalf("bad capture: %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "TestPanicErrorCapture") {
		t.Fatalf("stack should include the panic site")
	}
	if !strings.Contains(pe.Error(), "worker 3") {
		t.Fatalf("Error() should name the worker: %s", pe.Error())
	}
	// Re-wrapping keeps the original.
	if NewPanicError(pe, 9) != pe {
		t.Fatalf("NewPanicError must not double-wrap")
	}
}

func TestReasonStrings(t *testing.T) {
	for r, want := range map[Reason]string{
		ReasonNone: "none", ReasonCancelled: "cancelled",
		ReasonDeadline: "deadline-exceeded", ReasonCycleLimit: "cycle-limit",
		ReasonDeadlocked: "deadlocked", ReasonPanicked: "panicked",
	} {
		if r.String() != want {
			t.Fatalf("Reason(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
}
