package obs

import (
	"sync/atomic"
	"time"
)

// BuildPhase identifies where in the one-time model build a
// BuildState currently is. The values follow the pipeline order, so
// phase comparisons are meaningful.
type BuildPhase int32

const (
	// BuildPending: created but no phase started yet.
	BuildPending BuildPhase = iota
	// BuildPrepare covers model preparation, G synthesis and variable
	// ordering (cheap relative to the diagram phases).
	BuildPrepare
	// BuildCompile is the coded-ROBDD compilation.
	BuildCompile
	// BuildConvert is the ROBDD → ROMDD conversion.
	BuildConvert
	// BuildEval is the probability evaluation on the finished ROMDD.
	BuildEval
	// BuildDone: the build finished (successfully or not).
	BuildDone
)

// String returns the phase name used in JSON reports and metrics.
func (p BuildPhase) String() string {
	switch p {
	case BuildPending:
		return "pending"
	case BuildPrepare:
		return "prepare"
	case BuildCompile:
		return "compile"
	case BuildConvert:
		return "convert"
	case BuildEval:
		return "eval"
	case BuildDone:
		return "done"
	default:
		return "unknown"
	}
}

// buildPhaseStart[p] is the phase-weighted overall progress at the
// moment phase p begins; the weight of phase p is the distance to the
// next entry. The weights reflect the measured cost split of large
// builds (BENCH_5: compile dominates, conversion is the
// second-largest phase, everything else is noise): prepare 1%,
// compile 75%, convert 22%, eval 2%.
var buildPhaseStart = [...]float64{
	BuildPending: 0,
	BuildPrepare: 0,
	BuildCompile: 0.01,
	BuildConvert: 0.76,
	BuildEval:    0.98,
	BuildDone:    1,
}

// BuildState is the live progress of one model build — the unit the
// flight recorder samples and the /v1/builds endpoint lists. The
// build pipeline updates it with single atomic operations (phase
// transitions, work-unit counts, live-node gauge); any goroutine may
// Snapshot it concurrently.
//
// Every method is a no-op on a nil receiver, so the pipeline threads
// a BuildState through unconditionally and un-instrumented builds pay
// only nil checks.
type BuildState struct {
	startNanos atomic.Int64
	phase      atomic.Int32
	phaseStart atomic.Int64 // unix nanos of the current phase start
	done       atomic.Int64 // work units finished in the current phase
	total      atomic.Int64 // work units expected (0 = unknown)
	live       atomic.Int64 // live decision-diagram nodes
}

// NewBuildState returns a tracker with the clock started.
func NewBuildState() *BuildState {
	b := &BuildState{}
	now := time.Now().UnixNano()
	b.startNanos.Store(now)
	b.phaseStart.Store(now)
	return b
}

// StartPhase transitions to phase p and resets the per-phase work
// counters; total ≤ 0 means the phase's unit count is not known (yet —
// SetTotal may follow once it is).
func (b *BuildState) StartPhase(p BuildPhase, total int64) {
	if b == nil {
		return
	}
	b.done.Store(0)
	if total < 0 {
		total = 0
	}
	b.total.Store(total)
	b.phaseStart.Store(time.Now().UnixNano())
	b.phase.Store(int32(p))
}

// Finish marks the build done.
func (b *BuildState) Finish() { b.StartPhase(BuildDone, 0) }

// SetTotal publishes the current phase's expected work-unit count once
// it becomes known (e.g. after the compile task DAG is built).
func (b *BuildState) SetTotal(total int64) {
	if b != nil && total > 0 {
		b.total.Store(total)
	}
}

// Add records n finished work units in the current phase.
func (b *BuildState) Add(n int64) {
	if b != nil {
		b.done.Add(n)
	}
}

// SetLive records the current live decision-diagram node count.
func (b *BuildState) SetLive(n int64) {
	if b != nil {
		b.live.Store(n)
	}
}

// Phase returns the current phase (BuildPending on a nil receiver).
func (b *BuildState) Phase() BuildPhase {
	if b == nil {
		return BuildPending
	}
	return BuildPhase(b.phase.Load())
}

// BuildStatus is a point-in-time snapshot of a BuildState, shaped for
// JSON reporting.
type BuildStatus struct {
	// Phase is the current pipeline phase name.
	Phase string `json:"phase"`
	// ElapsedSeconds is the wall time since the build started;
	// PhaseSeconds since the current phase started.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	PhaseSeconds   float64 `json:"phase_seconds"`
	// PhaseDone/PhaseTotal are the work units of the current phase
	// (gate tasks for compile, layer entry nodes for convert);
	// PhaseTotal 0 means the count is unknown.
	PhaseDone  int64 `json:"phase_done"`
	PhaseTotal int64 `json:"phase_total,omitempty"`
	// LiveNodes is the most recently reported live decision-diagram
	// node count.
	LiveNodes int64 `json:"live_nodes,omitempty"`
	// Progress is the phase-weighted overall completion in [0,1].
	Progress float64 `json:"progress"`
	// ETASeconds extrapolates the remaining time from Progress and
	// ElapsedSeconds; negative when no estimate is possible (phase
	// start, unknown totals).
	ETASeconds float64 `json:"eta_seconds"`
}

// Snapshot returns the current status. Safe to call from any
// goroutine; the zero status on a nil receiver.
func (b *BuildState) Snapshot() BuildStatus {
	if b == nil {
		return BuildStatus{Phase: BuildPending.String(), ETASeconds: -1}
	}
	now := time.Now().UnixNano()
	phase := BuildPhase(b.phase.Load())
	done, total := b.done.Load(), b.total.Load()
	st := BuildStatus{
		Phase:          phase.String(),
		ElapsedSeconds: float64(now-b.startNanos.Load()) / 1e9,
		PhaseSeconds:   float64(now-b.phaseStart.Load()) / 1e9,
		PhaseDone:      done,
		PhaseTotal:     total,
		LiveNodes:      b.live.Load(),
		Progress:       buildProgress(phase, done, total),
		ETASeconds:     -1,
	}
	if eta, ok := progressETA(st.Progress, time.Duration(now-b.startNanos.Load())); ok {
		st.ETASeconds = eta.Seconds()
	}
	return st
}

// buildProgress maps (phase, done/total) to the phase-weighted overall
// fraction. An unknown total contributes nothing beyond the phase
// start — progress never overstates.
func buildProgress(p BuildPhase, done, total int64) float64 {
	if p <= BuildPending {
		return 0
	}
	if p >= BuildDone {
		return 1
	}
	start := buildPhaseStart[p]
	width := buildPhaseStart[p+1] - start
	frac := 0.0
	if total > 0 && done > 0 {
		frac = float64(done) / float64(total)
		if frac > 1 {
			frac = 1
		}
	}
	return start + width*frac
}

// progressETA is ETA over a fractional progress: it scales the
// fraction to a fixed unit grid so the same guards (zero rate, zero
// elapsed, clamped negative remainder) apply.
func progressETA(progress float64, elapsed time.Duration) (time.Duration, bool) {
	const grid = 1 << 20
	if !(progress > 0) || progress > 1 {
		if progress > 1 {
			return 0, true
		}
		return 0, false
	}
	return ETA(int64(progress*grid), grid, elapsed)
}
