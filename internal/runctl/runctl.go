// Package runctl provides the run-control primitives shared by the simulator
// core and the zsimd service: a lock-free cooperative cancellation token that
// the bound-weave loop checks at interval boundaries, a wall-clock watchdog
// that trips the token when a run exceeds its time budget, and structured
// panic capture so a fault in one pooled worker is contained as data instead
// of killing the host process.
//
// The token is a single atomic word. Checking it costs one atomic load and
// performs no allocation, so the simulator can poll it on every interval (and
// every bound round) without perturbing the steady-state allocation
// guarantees the engine is built around.
package runctl

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Reason classifies why a run stopped before completing its workload.
// ReasonNone means the run is still in progress or completed normally.
type Reason uint32

// The failure reasons a run can stop with. First-cancel-wins: once a token
// carries one of these, later cancellations do not overwrite it.
const (
	// ReasonNone: no failure; the run completed (or has not stopped yet).
	ReasonNone Reason = iota
	// ReasonCancelled: the caller cancelled the run (context cancellation,
	// job cancel request, service drain).
	ReasonCancelled
	// ReasonDeadline: the wall-clock watchdog fired (MaxWallTime exceeded).
	ReasonDeadline
	// ReasonCycleLimit: the simulated-cycle limit was reached (MaxCycles).
	ReasonCycleLimit
	// ReasonDeadlocked: the workload deadlocked — no thread runnable and none
	// wakeable by the passage of simulated time.
	ReasonDeadlocked
	// ReasonPanicked: a panic in a worker or the simulation driver was
	// recovered and the run was aborted.
	ReasonPanicked
)

// String names the reason for diagnostics and audit records.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonCancelled:
		return "cancelled"
	case ReasonDeadline:
		return "deadline-exceeded"
	case ReasonCycleLimit:
		return "cycle-limit"
	case ReasonDeadlocked:
		return "deadlocked"
	case ReasonPanicked:
		return "panicked"
	default:
		return fmt.Sprintf("reason(%d)", uint32(r))
	}
}

// Token is a cooperative cancellation token: one atomic word holding the
// first failure reason raised against the run. The zero value is ready to
// use. All methods are safe for concurrent use and safe on a nil receiver
// (a nil token is never cancelled), so hot paths can poll unconditionally.
type Token struct {
	state atomic.Uint32
}

// Cancel raises reason r against the run. The first cancellation wins;
// Cancel reports whether this call was the one that tripped the token.
// Cancelling with ReasonNone is a no-op.
func (t *Token) Cancel(r Reason) bool {
	if t == nil || r == ReasonNone {
		return false
	}
	return t.state.CompareAndSwap(uint32(ReasonNone), uint32(r))
}

// Reason returns the reason the token was cancelled with (ReasonNone if it
// has not been cancelled).
func (t *Token) Reason() Reason {
	if t == nil {
		return ReasonNone
	}
	return Reason(t.state.Load())
}

// Cancelled reports whether the token has been cancelled. One atomic load,
// no allocation.
func (t *Token) Cancelled() bool { return t.Reason() != ReasonNone }

// Watchdog is an armed wall-clock limit: when the limit expires before Stop
// is called, it cancels the watched token with ReasonDeadline. The zero/nil
// Watchdog is inert, so callers can unconditionally defer Stop.
type Watchdog struct {
	timer *time.Timer
}

// Watch arms a watchdog that cancels t with ReasonDeadline after limit. A
// non-positive limit returns a nil (inert) watchdog.
func Watch(t *Token, limit time.Duration) *Watchdog {
	if limit <= 0 {
		return nil
	}
	return &Watchdog{timer: time.AfterFunc(limit, func() { t.Cancel(ReasonDeadline) })}
}

// Stop disarms the watchdog. Idempotent and nil-safe. Stop does not undo a
// cancellation that already fired.
func (w *Watchdog) Stop() {
	if w != nil && w.timer != nil {
		w.timer.Stop()
	}
}

// PanicError is a recovered panic, captured with the stack of the panicking
// goroutine so the fault site survives the hand-off across goroutines and
// process layers (pool worker -> weave engine -> simulator -> facade ->
// service audit log).
type PanicError struct {
	// Value is the value passed to panic().
	Value interface{}
	// Stack is the panicking goroutine's stack, captured inside the deferred
	// recover (so it includes the panic site, not the recovery site).
	Stack []byte
	// Worker is the pool worker index the panic was recovered on, or -1 when
	// it was recovered outside a pool worker.
	Worker int
}

// NewPanicError wraps a recovered value. If the value is already a
// *PanicError (a lower layer captured it first), it is returned unchanged so
// the original stack is preserved.
func NewPanicError(v interface{}, worker int) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: v, Stack: debug.Stack(), Worker: worker}
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Worker >= 0 {
		return fmt.Sprintf("panic in worker %d: %v", e.Worker, e.Value)
	}
	return fmt.Sprintf("panic: %v", e.Value)
}
