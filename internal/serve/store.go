package serve

import (
	"net/http"
	"strconv"
	"time"
)

// ResultRow is one finished job's row: the compact, indexed slice of the job
// result that campaign queries and scaling analyses need, without the full
// metrics tree. The job's terminal "finish" audit record carries it, so the
// JSONL audit stream is the durable archive; in memory, GET /results serves
// the rows of the newest RetainJobs finished jobs.
type ResultRow struct {
	Job      string `json:"job"`
	Campaign string `json:"campaign,omitempty"`
	// Point is the job's campaign point index (campaign jobs only).
	Point *int `json:"point,omitempty"`
	// Shape is the config's shape key in hex ("none" if no config ever built).
	Shape   string `json:"shape"`
	Outcome string `json:"outcome"`
	Reused  bool   `json:"reused,omitempty"`
	// Seconds is the job's service latency (start to finish).
	Seconds float64 `json:"seconds"`
	// Simulated metrics (zero for jobs that never ran).
	Cycles       uint64    `json:"cycles,omitempty"`
	Instructions uint64    `json:"instructions,omitempty"`
	IPC          float64   `json:"ipc,omitempty"`
	SimMIPS      float64   `json:"simMIPS,omitempty"`
	Finished     time.Time `json:"finished"`
}

// resultFilter selects rows; zero fields match everything.
type resultFilter struct {
	campaign string
	shape    string
	outcome  string
	job      string
	limit    int
}

// file appends a just-finished job to done, the one record of finished jobs.
// Past the newest RetainJobs (negative = unlimited) the oldest job leaves done
// and the jobs map; from then on its ID answers 410. Callers hold s.mu and
// have set j.row.
func (s *Server) file(j *job) {
	s.done = append(s.done, j)
	s.doneTotal++
	if retain := s.opts.RetainJobs; retain >= 0 && len(s.done) > retain {
		delete(s.jobs, s.done[0].id)
		s.done[0] = nil
		s.done = s.done[1:]
	}
}

// results returns the rows of the retained finished jobs that match f, newest
// first, up to the filter's limit (default 100).
func (s *Server) results(f resultFilter) []ResultRow {
	if f.limit <= 0 {
		f.limit = 100
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ResultRow, 0, min(f.limit, len(s.done)))
	for i := len(s.done) - 1; i >= 0 && len(out) < f.limit; i-- {
		row := &s.done[i].row
		if (f.campaign != "" && row.Campaign != f.campaign) ||
			(f.shape != "" && row.Shape != f.shape) ||
			(f.outcome != "" && row.Outcome != f.outcome) ||
			(f.job != "" && row.Job != f.job) {
			continue
		}
		out = append(out, *row)
	}
	return out
}

// retention derives the retention counters of /healthz and /metrics; callers
// hold s.mu. jobsRetained counts the addressable jobs (live ones included),
// jobsEvicted every finished job that has left done.
func (s *Server) retention() (jobsRetained int, jobsEvicted uint64) {
	return len(s.jobs), s.doneTotal - uint64(len(s.done))
}

// handleResults serves GET /results: the queryable view over recent finished
// jobs. Filters: ?campaign=, ?shape= (hex key), ?outcome=, ?job=, ?limit=.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := resultFilter{
		campaign: q.Get("campaign"),
		shape:    q.Get("shape"),
		outcome:  q.Get("outcome"),
		job:      q.Get("job"),
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad limit"})
			return
		}
		f.limit = n
	}
	writeJSON(w, http.StatusOK, s.results(f))
}
