package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
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

// campaignState is the server-side record of one campaign, from admission
// until it leaves the retired ones. The expansion is immutable after creation
// and Server.mu guards the rest; once finished, status serves only final.
type campaignState struct {
	id         string
	seq        int // admission order; id is "campaign-<seq>"
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
	created     time.Time
	agg         *campaign.Agg
	children    []string
	final       *CampaignStatus // the status at the finish edge; nil while active
}

// status is the campaign's wire form, with the summary and children when
// detail is set; callers hold Server.mu.
func (c *campaignState) status(detail bool) CampaignStatus {
	if c.final != nil {
		st := *c.final
		if !detail {
			st.Summary, st.Children = nil, nil
		}
		return st
	}
	st := CampaignStatus{
		ID:          c.id,
		Name:        c.name,
		Priority:    classNames[c.class],
		Quota:       c.quota,
		State:       StateRunning,
		Points:      len(c.points),
		Shapes:      c.shapes,
		Released:    c.next,
		Outstanding: c.outstanding,
		Done:        c.done,
		Created:     c.created,
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
	class, err := parsePriority(cmp.Or(req.Priority, "low"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	baseCfg, _ := req.Base.buildConfig() // validate() already built it
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
		c.seq, c.id = s.campSeq, fmt.Sprintf("campaign-%d", s.campSeq)
		s.campaigns[c.id] = c
		s.active = append(s.active, c)
		s.audit.record("campaign", c.id, "running",
			fmt.Sprintf("name=%s points=%d shapes=%d priority=%s quota=%d", c.name, len(points), c.shapes, classNames[class], quota))
		s.pump()
		return reply{code: http.StatusAccepted, body: c.status(false)}
	})
}

func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		cs := slices.SortedFunc(maps.Values(s.campaigns), func(a, b *campaignState) int { return a.seq - b.seq })
		out := make([]CampaignStatus, len(cs))
		for i, c := range cs {
			out[i] = c.status(false)
		}
		return reply{code: http.StatusOK, body: out}
	})
}

// lookupCampaign resolves the request's campaign like lookup does a job's; an
// admitted campaign past the retention window answers 410, any other ID 404.
func (s *Server) lookupCampaign(r *http.Request) (*campaignState, reply) {
	id := r.PathValue("id")
	if c := s.campaigns[id]; c != nil {
		return c, reply{}
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "campaign-")); err == nil && n > 0 && n <= s.campSeq && id == "campaign-"+strconv.Itoa(n) {
		return nil, errReply(http.StatusGone,
			fmt.Sprintf("campaign %s evicted from retention; see /results?campaign=%s or the audit log", id, id))
	}
	return nil, errReply(http.StatusNotFound, "no such campaign")
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		c, miss := s.lookupCampaign(r)
		if c == nil {
			return miss
		}
		return reply{code: http.StatusOK, body: c.status(true)}
	})
}

// handleCampaignCancel stops releasing new children and cancels the
// outstanding ones; already-finished children keep their results. The
// campaign finishes when its last outstanding child lands.
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func() reply {
		c, miss := s.lookupCampaign(r)
		switch {
		case c == nil:
			return miss
		case c.cancelled || c.final != nil:
			return errReply(http.StatusConflict, "campaign already finished")
		}
		c.cancelled = true
		// Cancel outstanding children; terminal ones refuse the cancel harmlessly.
		for _, id := range c.children {
			if j := s.jobs[id]; j != nil && j.requestCancel() {
				s.metrics.cancels++
				s.audit.record("cancel", j.id, "", "campaign cancelled")
			}
		}
		if c.outstanding == 0 {
			s.finishCampaign(c)
		} else {
			s.audit.record("campaign", c.id, StateRunning, "cancel requested")
		}
		return reply{code: http.StatusAccepted, body: c.status(false)}
	})
}

// pump releases children for every active campaign that has quota headroom,
// round-robin across them until none can make progress. It runs under s.mu
// (at submission and at every job completion), so release order — and
// therefore child job numbering — is deterministic given a completion order.
func (s *Server) pump() {
	for progress := true; progress; {
		progress = false
		for _, c := range s.active {
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
// aggregates, quota release, and the campaign's finish edge when this was its
// last child. Callers hold s.mu.
func (s *Server) campaignChildDone(j *job) {
	c, row := j.camp, &j.row
	c.outstanding--
	c.done++
	s.metrics.campaignPoints++
	c.agg.Add(&c.points[j.point], campaign.PointResult{
		Outcome:      row.Outcome,
		Seconds:      row.Seconds,
		Cycles:       row.Cycles,
		Instructions: row.Instructions,
		SimMIPS:      row.SimMIPS,
	})
	if (c.cancelled && c.outstanding == 0) || c.done == len(c.points) {
		s.finishCampaign(c)
	}
}

// finishCampaign is a campaign's one finish edge. It takes the final status,
// writes it as the campaign's one terminal audit record, drops the expansion,
// aggregate and child list (retained child jobs still name the campaign
// through j.camp), and moves the campaign from the active list to the retired
// ones, of which the newest RetainJobs stay addressable. Callers hold s.mu.
func (s *Server) finishCampaign(c *campaignState) {
	st := c.status(true)
	st.State, st.Finished = "done", time.Now().UTC()
	if c.cancelled {
		st.State = StateCancelled
	}
	c.final = &st
	c.record(s.audit, "campaign")
	c.base, c.points, c.valueOrder, c.agg, c.children = nil, nil, nil, nil, nil
	s.active = slices.DeleteFunc(s.active, func(a *campaignState) bool { return a == c })
	s.retired = append(s.retired, c)
	if retain := s.opts.RetainJobs; retain >= 0 && len(s.retired) > retain {
		delete(s.campaigns, s.retired[0].id)
		s.retired = slices.Delete(s.retired, 0, 1)
	}
}

// record writes one audit event whose detail is the campaign's status JSON.
func (c *campaignState) record(a *auditLog, event string) {
	st := c.status(true)
	detail, err := json.Marshal(st)
	if err != nil {
		detail = []byte(`{}`)
	}
	a.record(event, c.id, st.State, string(detail))
}

// drainCampaigns persists the snapshot of every campaign still active at
// shutdown to the audit log (finished ones wrote theirs at their finish
// edge), so a drained daemon leaves a replayable account of sweep progress
// (done/outstanding/pending per campaign plus the aggregate summary). Callers
// hold s.mu.
func (s *Server) drainCampaigns() {
	for _, c := range s.active {
		c.record(s.audit, "campaign-drain")
	}
}
