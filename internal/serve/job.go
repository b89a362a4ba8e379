// Package serve implements zsimd's HTTP/JSON simulation service: a bounded
// job queue in front of a fixed worker pool, with per-job deadlines,
// cooperative cancellation, panic isolation and graceful drain on shutdown.
//
// The service is deliberately thin over the zsim facade: a job is one
// simulator configuration plus its workloads, executed via
// zsim.Simulator.RunContext so every robustness guarantee of the library
// (interval-boundary cancellation, wall-time watchdog, cycle limits, typed
// failure reasons, recovered panics with partial metrics) applies unchanged
// to service jobs.
package serve

import (
	"context"
	"fmt"
	"time"

	"zsim"
	"zsim/internal/campaign"
	"zsim/internal/telemetry"
)

// WorkloadSpec names one workload of a job: a registered synthetic workload
// (zsim.NamedWorkloads), its software thread count and an optional
// per-thread block budget. Campaign points carry the same type.
type WorkloadSpec = campaign.Workload

// JobRequest describes one simulation job. Either Preset or Config selects
// the simulated system; Config wins when both are set.
type JobRequest struct {
	// Preset is a built-in system: "small" (default), "westmere", or "tiled".
	Preset string `json:"preset,omitempty"`
	// Tiles is the tile count for the "tiled" preset (default 4).
	Tiles int `json:"tiles,omitempty"`
	// CoreModel is the core model for the "tiled" preset ("ooo" or "ipc1").
	CoreModel string `json:"coreModel,omitempty"`
	// Config is a full system description; it overrides Preset.
	Config *zsim.Config `json:"config,omitempty"`

	// Workloads are the processes to simulate (at least one).
	Workloads []WorkloadSpec `json:"workloads"`

	// MaxInstructions stops the run cleanly after ~n instructions (0 = run
	// the workloads to completion).
	MaxInstructions uint64 `json:"maxInstructions,omitempty"`
	// HostThreads caps the bound-phase worker threads (0 = all host CPUs).
	HostThreads int `json:"hostThreads,omitempty"`
	// Seed seeds the interval barrier's wake-up shuffling (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// TimeoutMillis is the per-job wall-time budget in milliseconds. The
	// effective budget is the tighter of this and the server's -job-timeout;
	// an overrun fails the job with reason "deadline-exceeded" but keeps its
	// partial metrics.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// Priority selects the admission class: "high" (reserved queue headroom,
	// admitted even when normal admission is full), "normal" (default) or
	// "low" (refused first under load; the class campaign children run at).
	Priority string `json:"priority,omitempty"`
}

// buildConfig resolves the request's system description. A positive
// HostThreads goes into the config, so the shape key, which decides which
// warm simulator may serve the job, covers the worker pool it was built with.
func (r *JobRequest) buildConfig() (*zsim.Config, error) {
	var cfg *zsim.Config
	switch {
	case r.Config != nil:
		c := *r.Config // copy: Validate mutates defaults in place
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("invalid config: %w", err)
		}
		cfg = &c
	case r.Preset == "" || r.Preset == "small":
		cfg = zsim.SmallConfig()
	case r.Preset == "westmere":
		cfg = zsim.WestmereConfig()
	case r.Preset == "tiled":
		tiles := r.Tiles
		if tiles == 0 {
			tiles = 4
		}
		model := r.CoreModel
		if model == "" {
			model = "ooo"
		}
		cfg = zsim.TiledConfig(tiles, model)
	default:
		return nil, fmt.Errorf("unknown preset %q", r.Preset)
	}
	if r.HostThreads > 0 {
		cfg.HostThreads = r.HostThreads
	}
	return cfg, nil
}

// validate rejects requests that can never run.
func (r *JobRequest) validate() error {
	if len(r.Workloads) == 0 {
		return fmt.Errorf("job needs at least one workload")
	}
	for _, w := range r.Workloads {
		if _, ok := zsim.LookupWorkload(w.Name); !ok {
			return fmt.Errorf("unknown workload %q", w.Name)
		}
		if w.Threads < 0 || w.Blocks < 0 {
			return fmt.Errorf("workload %q: negative threads/blocks", w.Name)
		}
	}
	if _, err := parsePriority(r.Priority); err != nil {
		return err
	}
	if _, err := r.buildConfig(); err != nil {
		return err
	}
	return nil
}

// Job states, in lifecycle order. A job is terminal in exactly one of
// StateSucceeded, StateFailed or StateCancelled.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Failure mirrors zsim.RunError for the wire: the typed reason plus the stop
// point, and the recovered panic message when Reason is "panicked".
type Failure struct {
	Reason   string `json:"reason"`
	Phase    string `json:"phase,omitempty"`
	Interval uint64 `json:"interval,omitempty"`
	Cycle    uint64 `json:"cycle,omitempty"`
	Panic    string `json:"panic,omitempty"`
}

// JobResult is the outcome of a finished job. Failed and cancelled jobs still
// carry the metrics accumulated up to the stop point (Partial = true).
type JobResult struct {
	Metrics     *zsim.Metrics `json:"metrics,omitempty"`
	Intervals   uint64        `json:"intervals"`
	WeaveEvents uint64        `json:"weaveEvents"`
	Partial     bool          `json:"partial,omitempty"`
	Failure     *Failure      `json:"failure,omitempty"`
	Error       string        `json:"error,omitempty"`
	// Reused marks jobs served by a warm simulator from the shape-keyed
	// pool (Reset + rerun) instead of a fresh construction.
	Reused bool `json:"reused,omitempty"`
	// ArenaChunks/ArenaBytes report the simulator's arena footprint; on a
	// warm simulator they stay flat across jobs once the working set is
	// established.
	ArenaChunks int    `json:"arenaChunks,omitempty"`
	ArenaBytes  uint64 `json:"arenaBytes,omitempty"`
}

// JobProgress is the live-progress block of a running job's status, fed from
// the simulator's telemetry probe (interval-boundary snapshots; reading it
// never touches the simulation).
type JobProgress struct {
	// Phase is the engine phase currently executing ("bound", "weave";
	// "idle" before the first interval, "done" after the run).
	Phase string `json:"phase"`
	// Intervals, Cycles and Instructions are the run's progress counters.
	Intervals    uint64 `json:"intervals"`
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	// SimMIPS is the run's simulation rate so far (simulated MIPS).
	SimMIPS float64 `json:"simMIPS"`
	// PctMaxCycles is simulated progress toward the run's MaxCycles budget in
	// percent (omitted when the run has no cycle budget).
	PctMaxCycles float64 `json:"pctMaxCycles,omitempty"`
	// LiveThreads / RunnableThreads are the scheduler's population gauges.
	LiveThreads     int `json:"liveThreads"`
	RunnableThreads int `json:"runnableThreads"`
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	Error     string    `json:"error,omitempty"`
	// Priority is the job's admission class.
	Priority string `json:"priority"`
	// Campaign and Point identify a campaign child's parent sweep and its
	// index in the expansion (absent on interactive jobs).
	Campaign string `json:"campaign,omitempty"`
	Point    *int   `json:"point,omitempty"`
	// Progress is present while the job is running.
	Progress *JobProgress `json:"progress,omitempty"`
}

// job is the server-side record of one submitted simulation, from admission
// until it leaves the server's finished-job record. id, seq, class, camp,
// point and submitted are fixed at admission; Server.mu guards the rest.
type job struct {
	id  string
	seq int // admission order; id is "job-<seq>"
	req *JobRequest
	// class is the admission class (classHigh/Normal/Low); camp and point link
	// a campaign child to its parent sweep (camp == nil, point == -1 for
	// interactive jobs).
	class int
	camp  *campaignState
	point int

	// row is the job's result row, written once as the job is filed.
	row ResultRow

	state     string
	cancelled bool               // cancel requested while still queued
	cancel    context.CancelFunc // set while running
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	// probe is the running simulation's telemetry probe, set for the span of
	// the run (attached after the simulator is acquired, detached in the
	// critical section that returns it to the warm pool).
	probe *telemetry.Probe
}

// status is the job's wire form; callers hold Server.mu.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:        j.id,
		State:     j.state,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Priority:  classNames[j.class],
	}
	if j.camp != nil {
		st.Campaign = j.camp.id
		point := j.point
		st.Point = &point
	}
	if j.result != nil {
		st.Error = j.result.Error
	}
	if j.state == StateRunning && j.probe != nil {
		snap := j.probe.Snapshot()
		st.Progress = &JobProgress{
			Phase:           snap.Phase,
			Intervals:       snap.Intervals,
			Cycles:          snap.Cycles,
			Instructions:    snap.Instrs,
			SimMIPS:         snap.SimMIPS(time.Now().UnixNano()),
			PctMaxCycles:    snap.PctMaxCycles(),
			LiveThreads:     snap.LiveThreads,
			RunnableThreads: snap.RunnableThreads,
		}
	}
	return st
}

// terminal reports whether the job has finished (in any terminal state).
func (j *job) terminal() bool {
	switch j.state {
	case StateSucceeded, StateFailed, StateCancelled:
		return true
	}
	return false
}

// requestCancel delivers a cancellation to the job wherever it is in its
// lifecycle. It reports whether the cancel was accepted (false once the job
// already finished). Callers hold Server.mu.
func (j *job) requestCancel() bool {
	switch j.state {
	case StateQueued:
		j.cancelled = true
		return true
	case StateRunning:
		j.cancel()
		return true
	default:
		return false
	}
}
