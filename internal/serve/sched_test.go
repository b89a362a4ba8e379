package serve

// Internal tests for the class-aware admission queue: strict class ordering,
// per-class admission limits and close/drain semantics. The HTTP-level
// behavior (sheds, campaign fairness) is covered by the external e2e tests.
// The queue is a plain record under Server.mu, so these single-goroutine
// tests drive it without a lock.

import (
	"testing"
	"time"
)

func testJob(id string) *job { return &job{id: id, point: -1} }

func TestSchedulerClassOrdering(t *testing.T) {
	q := &scheduler{capacity: 16}
	if !q.enqueue(testJob("low-1"), classLow) ||
		!q.enqueue(testJob("norm-1"), classNormal) ||
		!q.enqueue(testJob("high-1"), classHigh) ||
		!q.enqueue(testJob("norm-2"), classNormal) {
		t.Fatalf("admission refused below limits")
	}
	want := []string{"high-1", "norm-1", "norm-2", "low-1"}
	for _, id := range want {
		j, ok := q.next()
		if !ok || j.id != id {
			t.Fatalf("next = %v/%v, want %s", j, ok, id)
		}
	}
}

func TestSchedulerClassLimits(t *testing.T) {
	q := &scheduler{capacity: 8} // low limit 6, normal limit 8, high limit 9
	admitted := 0
	for i := 0; i < 10; i++ {
		if q.enqueue(testJob("low"), classLow) {
			admitted++
		}
	}
	if admitted != 6 {
		t.Fatalf("low admissions = %d, want 6 (capacity - capacity/4)", admitted)
	}
	// Normal fills to nominal capacity.
	for i := 0; i < 2; i++ {
		if !q.enqueue(testJob("norm"), classNormal) {
			t.Fatalf("normal refused with queue below capacity")
		}
	}
	if q.enqueue(testJob("norm"), classNormal) {
		t.Fatalf("normal admitted past capacity")
	}
	// High still gets in: reserved headroom above capacity.
	if !q.enqueue(testJob("high"), classHigh) {
		t.Fatalf("high refused at capacity — headroom missing")
	}
	if q.enqueue(testJob("high"), classHigh) {
		t.Fatalf("high admitted past its headroom")
	}
	if q.size != 9 {
		t.Fatalf("depth = %d, want 9", q.size)
	}
	if len(q.queues[classHigh]) != 1 || len(q.queues[classNormal]) != 2 || len(q.queues[classLow]) != 6 {
		t.Fatalf("class depths = %d/%d/%d", len(q.queues[classHigh]), len(q.queues[classNormal]), len(q.queues[classLow]))
	}
}

// TestSchedulerTinyQueue pins the capacity-1 behavior the load-shedding e2e
// test depends on: one normal job queues, the next sheds, high still fits.
func TestSchedulerTinyQueue(t *testing.T) {
	q := &scheduler{capacity: 1}
	if !q.enqueue(testJob("a"), classNormal) {
		t.Fatalf("first normal refused")
	}
	if q.enqueue(testJob("b"), classNormal) {
		t.Fatalf("second normal admitted at capacity 1")
	}
	if q.enqueue(testJob("c"), classLow) {
		t.Fatalf("low admitted at capacity 1")
	}
	if !q.enqueue(testJob("d"), classHigh) {
		t.Fatalf("high refused its headroom slot")
	}
}

func TestSchedulerCloseDrains(t *testing.T) {
	q := &scheduler{capacity: 4}
	q.enqueue(testJob("a"), classNormal)
	q.enqueue(testJob("b"), classLow)
	q.closed = true
	if q.enqueue(testJob("c"), classHigh) {
		t.Fatalf("enqueue accepted after close")
	}
	// Already-admitted jobs still drain, then next reports closed.
	if j, ok := q.next(); !ok || j.id != "a" {
		t.Fatalf("drain a: %v/%v", j, ok)
	}
	if j, ok := q.next(); !ok || j.id != "b" {
		t.Fatalf("drain b: %v/%v", j, ok)
	}
	if _, ok := q.next(); ok {
		t.Fatalf("next returned a job after drain")
	}
}

// TestSchedulerCloseWakesBlockedWorker: workers parked on an empty queue must
// be released when Shutdown closes it.
func TestSchedulerCloseWakesBlockedWorker(t *testing.T) {
	s := New(Options{Workers: 2})
	time.Sleep(10 * time.Millisecond) // let the workers park
	done := make(chan struct{})
	go func() {
		s.Shutdown(time.Hour) // returns once every worker has exited
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("closing the queue did not wake the blocked workers")
	}
}
