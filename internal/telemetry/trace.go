package telemetry

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// TraceSink collects bounded Chrome trace-event slices from a run for loading
// into Perfetto (chrome://tracing JSON array format). The simulation side
// calls Add from whatever goroutine executes the slice, and the sink assigns
// each slot with a single atomic increment, so recording is lock-free and
// allocation-free after construction. Once the fixed capacity is exhausted
// further events are counted as dropped rather than grown: a runaway run can
// never turn the trace into a memory leak.
//
// Tracks are tid values in the export; the simulator records on TrackPhases.
type TraceSink struct {
	events  []traceEvent
	next    atomic.Int64
	dropped atomic.Int64
}

type traceEvent struct {
	track    int32
	name     string
	startUS  int64 // microseconds since Unix epoch (Chrome "ts" clock)
	durUS    int64
	interval uint64 // slice argument: the interval number
}

// TrackPhases is the driver's track: one bound and one weave slice per
// interval.
const TrackPhases int32 = 0

// MaxTraceEvents is the default (and maximum) sink capacity.
const MaxTraceEvents = 1 << 16

// NewTraceSink builds a sink holding at most capacity events
// (MaxTraceEvents when capacity <= 0; clamped to MaxTraceEvents above it).
func NewTraceSink(capacity int) *TraceSink {
	if capacity <= 0 || capacity > MaxTraceEvents {
		capacity = MaxTraceEvents
	}
	return &TraceSink{events: make([]traceEvent, capacity)}
}

// Add records one complete slice on a track. name must be a static string
// (it is stored, not copied). arg lands in the event's args block (the
// interval number for phase slices). Nil-safe; drops (and counts) events past
// capacity.
func (t *TraceSink) Add(track int32, name string, start time.Time, dur time.Duration, arg uint64) {
	if t == nil {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.events)) {
		t.dropped.Add(1)
		return
	}
	t.events[i] = traceEvent{
		track:    track,
		name:     name,
		startUS:  start.UnixMicro(),
		durUS:    int64(dur / time.Microsecond),
		interval: arg,
	}
}

// Len returns the number of recorded (non-dropped) events.
func (t *TraceSink) Len() int {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if n > int64(len(t.events)) {
		n = int64(len(t.events))
	}
	return int(n)
}

// Dropped returns the number of events discarded after capacity was reached.
func (t *TraceSink) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// WriteJSON emits the trace as a Chrome trace-event JSON array: one "M"
// (metadata) event naming each track, then one "X" (complete) event per
// slice. The output loads directly in Perfetto / chrome://tracing. Call
// after the run finishes (concurrent Add during WriteJSON may be missed,
// never corrupts).
func (t *TraceSink) WriteJSON(w io.Writer) error {
	n := t.Len()
	// Collect the set of tracks present so each gets a thread_name record.
	maxTrack := int32(0)
	for i := 0; i < n; i++ {
		if t.events[i].track > maxTrack {
			maxTrack = t.events[i].track
		}
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	for tr := int32(0); tr <= maxTrack; tr++ {
		name := "phases"
		if tr > 0 {
			name = fmt.Sprintf("track %d", tr)
		}
		if err := emit(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, tr, name); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		ev := &t.events[i]
		if err := emit(`{"ph":"X","pid":1,"tid":%d,"name":%q,"ts":%d,"dur":%d,"args":{"n":%d}}`,
			ev.track, ev.name, ev.startUS, ev.durUS, ev.interval); err != nil {
			return err
		}
	}
	if dropped := t.Dropped(); dropped > 0 {
		if err := emit(`{"ph":"M","pid":1,"tid":0,"name":"process_labels","args":{"labels":"dropped %d events at capacity"}}`, dropped); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}
