package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"zsim/internal/campaign"
)

// CampaignRequest is the POST /campaigns payload: a base job (system +
// workloads + run knobs) and the axes to sweep. The expansion (base × axes) is
// deterministic — see internal/campaign — and is accepted or rejected
// atomically before any child runs.
type CampaignRequest struct {
	// Name labels the campaign in listings and the audit log.
	Name string `json:"name,omitempty"`
	// Base is the job every point starts from; axis values override its
	// config (and, for the workloads/seed axes, its workloads and seed).
	Base JobRequest `json:"base"`
	// Axes select the sweep (cartesian axes or an explicit point list).
	Axes campaign.Axes `json:"axes"`
	// Priority is the admission class of the campaign's children: "low"
	// (default — sweeps yield to interactive jobs), "normal" or "high".
	Priority string `json:"priority,omitempty"`
	// Quota bounds the campaign's outstanding (queued + running) children.
	// Default 2×workers (min 2): enough to keep workers fed without letting
	// one sweep monopolize the queue.
	Quota int `json:"quota,omitempty"`
}

// CampaignStatus is the wire form of a campaign's progress. Summary and
// Children are populated only on GET /campaigns/{id}.
type CampaignStatus struct {
	ID          string    `json:"id"`
	Name        string    `json:"name,omitempty"`
	Priority    string    `json:"priority"`
	Quota       int       `json:"quota"`
	State       string    `json:"state"` // running | done | cancelled
	Points      int       `json:"points"`
	Shapes      int       `json:"shapes"` // distinct config shapes across points
	Released    int       `json:"released"`
	Outstanding int       `json:"outstanding"`
	Done        int       `json:"done"`
	Created     time.Time `json:"created"`
	Finished    time.Time `json:"finished,omitzero"`
	// Summary carries the live aggregates: outcome counts, latency
	// percentiles, per-axis scaling curves.
	Summary *campaign.Summary `json:"summary,omitempty"`
	// Children lists the child job IDs released so far, in point order.
	Children []string `json:"children,omitempty"`
}

// campaignState is the server-side record of one campaign. The points slice
// and expansion metadata are immutable after creation; Server.mu guards the
// progress fields.
type campaignState struct {
	id         string
	name       string
	class      int
	quota      int
	base       *JobRequest
	points     []campaign.Point
	shapes     int
	valueOrder map[string][]string

	next        int // next point index to release
	outstanding int
	done        int
	cancelled   bool
	finished    time.Time
	created     time.Time
	agg         *campaign.Agg
	children    []string
}

// stateName derives the campaign's lifecycle state.
func (c *campaignState) stateName() string {
	if c.cancelled {
		if c.outstanding == 0 {
			return "cancelled"
		}
		return "running"
	}
	if c.done == len(c.points) {
		return "done"
	}
	return "running"
}

// status is the campaign's wire form, with the summary and children when
// detail is set; callers hold Server.mu.
func (c *campaignState) status(detail bool) CampaignStatus {
	st := CampaignStatus{
		ID:          c.id,
		Name:        c.name,
		Priority:    classNames[c.class],
		Quota:       c.quota,
		State:       c.stateName(),
		Points:      len(c.points),
		Shapes:      c.shapes,
		Released:    c.next,
		Outstanding: c.outstanding,
		Done:        c.done,
		Created:     c.created,
		Finished:    c.finished,
	}
	if detail {
		summary := c.agg.Snapshot(c.valueOrder)
		st.Summary = &summary
		st.Children = slices.Clone(c.children)
	}
	return st
}

// childRequest builds the point's job request from the campaign base.
func (c *campaignState) childRequest(p *campaign.Point) *JobRequest {
	req := *c.base
	req.Preset, req.Tiles, req.CoreModel = "", 0, ""
	req.Config = p.Config
	if p.Seed != 0 {
		req.Seed = p.Seed
	}
	if p.Workloads != nil {
		specs := make([]WorkloadSpec, len(p.Workloads))
		for i, w := range p.Workloads {
			specs[i] = WorkloadSpec{Name: w.Name, Threads: w.Threads, Blocks: w.Blocks}
		}
		req.Workloads = specs
	}
	req.Priority = classNames[c.class]
	return &req
}

// handleCampaignSubmit admits a campaign: the whole expansion is validated up
// front (every point's config), the campaign is registered, and its first
// children are released subject to quota and class limits. The campaign
// itself is never shed once its expansion is accepted — only its children
// wait; submission is refused only while draining or when the expansion is
// invalid or oversized.
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request: " + err.Error()})
		return
	}
	if err := req.Base.validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "base: " + err.Error()})
		return
	}
	pri := req.Priority
	if pri == "" {
		pri = "low"
	}
	class, err := parsePriority(pri)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	baseCfg, err := req.Base.buildConfig()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "base: " + err.Error()})
		return
	}
	points, err := campaign.Expand(baseCfg, req.Axes, s.opts.MaxCampaignPoints)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if len(points) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "campaign expands to zero points"})
		return
	}
	quota := req.Quota
	if quota <= 0 {
		quota = max(2, 2*s.opts.Workers)
	}
	shapes := make(map[uint64]struct{}, 4)
	for i := range points {
		shapes[points[i].Shape] = struct{}{}
	}
	base := req.Base // copy; the campaign owns it beyond this request
	c := &campaignState{
		name:       req.Name,
		class:      class,
		quota:      quota,
		base:       &base,
		points:     points,
		shapes:     len(shapes),
		valueOrder: campaign.ValueOrder(points),
		agg:        campaign.NewAgg(),
		created:    time.Now().UTC(),
	}

	s.respond(w, func() reply {
		if s.draining {
			return s.shed("draining", "", "shutting down")
		}
		s.campSeq++
		c.id = fmt.Sprintf("campaign-%d", s.campSeq)
		s.campaigns[c.id] = c
		s.campList = append(s.campList, c)
		s.audit.record("campaign", c.id, "running",
			fmt.Sprintf("name=%s points=%d shapes=%d priority=%s quota=%d", c.name, len(points), c.shapes, classNames[class], quota))
		s.pump()
		return reply{code: http.StatusAccepted, body: c.status(false)}
	})
}

func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		out := make([]CampaignStatus, 0, len(s.campList))
		for _, c := range s.campList {
			out = append(out, c.status(false))
		}
		return reply{code: http.StatusOK, body: out}
	})
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		c := s.campaigns[r.PathValue("id")]
		if c == nil {
			return errReply(http.StatusNotFound, "no such campaign")
		}
		return reply{code: http.StatusOK, body: c.status(true)}
	})
}

// handleCampaignCancel stops releasing new children and cancels the
// outstanding ones; already-finished children keep their results.
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		c := s.campaigns[r.PathValue("id")]
		switch {
		case c == nil:
			return errReply(http.StatusNotFound, "no such campaign")
		case c.cancelled || c.done == len(c.points):
			return errReply(http.StatusConflict, "campaign already finished")
		}
		c.cancelled = true
		if c.outstanding == 0 && c.finished.IsZero() {
			c.finished = time.Now().UTC()
		}
		// Cancel outstanding children; terminal ones refuse the cancel harmlessly.
		for _, id := range c.children {
			if j := s.jobs[id]; j != nil && j.requestCancel() {
				s.metrics.cancels++
				s.audit.record("cancel", j.id, "", "campaign cancelled")
			}
		}
		s.audit.record("campaign", c.id, "cancelled", "cancel requested")
		return reply{code: http.StatusAccepted, body: c.status(false)}
	})
}

// pump releases children for every campaign that has quota headroom,
// round-robin across campaigns until no campaign can make progress. It runs
// under s.mu (at submission and at every job completion), so release order —
// and therefore child job numbering — is deterministic given a completion
// order.
func (s *Server) pump() {
	for progress := true; progress; {
		progress = false
		for _, c := range s.campList {
			if c.cancelled || c.next >= len(c.points) || c.outstanding >= c.quota {
				continue
			}
			p := &c.points[c.next]
			if _, shed := s.admit(c.childRequest(p), c.class, c, p.Index); shed == "" {
				progress = true
			}
		}
	}
}

// campaignChildDone folds a finished child's row into its campaign:
// aggregates, quota release, and the campaign-finish audit edge. Callers hold
// s.mu.
func (s *Server) campaignChildDone(j *job) {
	c, row := j.camp, &j.row
	c.outstanding--
	c.done++
	c.agg.Add(&c.points[j.point], campaign.PointResult{
		Outcome:      row.Outcome,
		Seconds:      row.Seconds,
		Cycles:       row.Cycles,
		Instructions: row.Instructions,
		SimMIPS:      row.SimMIPS,
	})
	if c.finished.IsZero() && ((c.cancelled && c.outstanding == 0) || c.done == len(c.points)) {
		c.finished = time.Now().UTC()
		s.audit.record("campaign", c.id, c.stateName(), fmt.Sprintf("done=%d points=%d", c.done, len(c.points)))
	}
}

// drainCampaigns persists every campaign's terminal snapshot to the audit log
// during shutdown, so a drained daemon leaves a replayable account of sweep
// progress (done/outstanding/pending per campaign plus the aggregate summary).
func (s *Server) drainCampaigns() {
	s.mu.Lock()
	sts := make([]CampaignStatus, len(s.campList))
	for i, c := range s.campList {
		sts[i] = c.status(true)
	}
	s.mu.Unlock()
	for _, st := range sts {
		detail, err := json.Marshal(st)
		if err != nil {
			detail = []byte(`{}`)
		}
		s.audit.record("campaign-drain", st.ID, st.State, string(detail))
	}
}
