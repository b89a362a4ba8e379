package serve

import (
	"net/http"
	"strconv"
	"time"
)

// ResultRow is one finished job's row in the result store: the compact,
// indexed slice of the job result that campaign queries and scaling analyses
// need, without the full metrics tree. Every row is also appended to the JSONL
// audit stream (event "result"), which is the store's durable archive — in
// memory, GET /results serves the rows of the newest StoreSize finished jobs.
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

// file appends a just-finished job to done, the one record of finished jobs,
// and applies both windows to it. The job that falls out of the newest
// RetainJobs drops its request and full result and from then on answers 410;
// the job that falls out of the ring leaves the jobs map and answers 404. The
// ring holds max(StoreSize, RetainJobs) jobs, or every job when RetainJobs is
// negative. Callers hold s.mu and have set j.row.
func (s *Server) file(j *job) {
	s.done = append(s.done, j)
	s.doneTotal++
	retain := s.opts.RetainJobs
	if retain < 0 {
		return
	}
	if n := len(s.done); n > retain {
		old := s.done[n-1-retain]
		old.gone, old.req, old.result = true, nil, nil
	}
	if len(s.done) > max(s.opts.StoreSize, retain) {
		delete(s.jobs, s.done[0].id)
		s.done[0] = nil
		s.done = s.done[1:]
	}
}

// results returns the rows of the newest StoreSize finished jobs that match
// f, newest first, up to the filter's limit (default 100).
func (s *Server) results(f resultFilter) []ResultRow {
	if f.limit <= 0 {
		f.limit = 100
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	oldest := max(0, len(s.done)-s.opts.StoreSize)
	out := make([]ResultRow, 0, min(f.limit, len(s.done)-oldest))
	for i := len(s.done) - 1; i >= oldest && len(out) < f.limit; i-- {
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

// windows derives the store and retention counters of /healthz and /metrics
// from done; callers hold s.mu. jobsRetained counts the addressable jobs
// (live ones included), the evicted counts every finished job that has left
// the respective window.
func (s *Server) windows() (storeRows int, storeEvicted uint64, jobsRetained int, jobsEvicted uint64) {
	storeRows = min(len(s.done), s.opts.StoreSize)
	storeEvicted = s.doneTotal - uint64(storeRows)
	jobsRetained = len(s.jobs)
	if retain := s.opts.RetainJobs; retain >= 0 {
		jobsRetained -= max(0, len(s.done)-retain)
		jobsEvicted = s.doneTotal - uint64(min(len(s.done), retain))
	}
	return storeRows, storeEvicted, jobsRetained, jobsEvicted
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
