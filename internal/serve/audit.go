package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// auditRecord is one line of the append-only JSONL audit log. Every job
// transition and every shed/shutdown decision is recorded, so a crash or
// drain leaves a replayable account of what the daemon accepted and what
// happened to it.
type auditRecord struct {
	Time   time.Time `json:"time"`
	Event  string    `json:"event"`
	Job    string    `json:"job,omitempty"`
	State  string    `json:"state,omitempty"`
	Detail string    `json:"detail,omitempty"`
	// Result carries the job's result row on its terminal "finish" record;
	// the audit stream is the durable archive of every finished job.
	Result *ResultRow `json:"result,omitempty"`
}

// auditLog serializes records to an underlying writer. A nil *auditLog (or
// one built over a nil writer) is a no-op, so call sites never need to guard.
// Its lock is a leaf: the server buffers records while holding Server.mu and
// flushes and closes the log outside it.
type auditLog struct {
	mu  sync.Mutex
	buf *bufio.Writer
	enc *json.Encoder
	dst io.Writer
}

// syncer is the subset of *os.File the audit log uses to make records
// durable on Close.
type syncer interface{ Sync() error }

func newAuditLog(w io.Writer) *auditLog {
	if w == nil {
		return nil
	}
	buf := bufio.NewWriter(w)
	return &auditLog{buf: buf, enc: json.NewEncoder(buf), dst: w}
}

// record appends one event.
func (a *auditLog) record(event, jobID, state, detail string) {
	a.write(auditRecord{Event: event, Job: jobID, State: state, Detail: detail})
}

// write appends rec, stamped with the current time. Encoding errors are
// swallowed: the audit log is an observer and must never fail a job.
func (a *auditLog) write(rec auditRecord) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rec.Time = time.Now().UTC()
	_ = a.enc.Encode(rec)
}

// flush pushes buffered records to the destination (called after each record
// batch boundary the server cares about, e.g. job completion).
func (a *auditLog) flush() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_ = a.buf.Flush()
}

// close flushes and, when the destination supports it, syncs the log to
// stable storage. Part of the shutdown sequence.
func (a *auditLog) close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	_ = a.buf.Flush()
	if s, ok := a.dst.(syncer); ok {
		_ = s.Sync()
	}
}
