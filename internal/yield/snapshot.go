package yield

import (
	"fmt"
	"sync"

	"socyield/internal/mdd"
)

// EngineRevision identifies the diagram-construction pipeline. Two
// builds with equal ModelKey produce bit-identical compiled models
// only within one engine revision: the key hashes the *inputs* of the
// build (structure, M, ordering kinds, ε, node budget), while the
// revision pins the *algorithms* that turn those inputs into diagrams
// (ordering heuristic implementations, reduction rules, the canonical
// form itself). Persisted compiled models carry the revision and are
// rejected — and rebuilt — on mismatch, so a store can never serve a
// model the current engine would not have built.
//
// Bump this whenever a change could alter the compiled diagrams or
// their evaluation semantics for an unchanged ModelKey. Revision 6
// corresponds to the complement-edge + parallel-build engine
// (PR 5/PR 6 lineage).
const EngineRevision uint32 = 6

// Snapshot is the portable state of one compiled model — everything a
// Reevaluator needs beyond the caller-supplied per-request inputs. It
// decouples the expensive one-time build from the process that ran it:
// internal/store serializes snapshots to disk, and
// RestoreReevaluator turns a decoded snapshot back into a live,
// concurrency-safe Reevaluator without touching the build pipeline.
type Snapshot struct {
	// EngineRevision is the pipeline revision that built the model
	// (EngineRevision at build time).
	EngineRevision uint32
	// ModelKey is the canonical identity of the compiled model (the
	// yield.ModelKey of the system/options it was built from). Filled
	// by the caller that computed it; "" when unknown.
	ModelKey string
	// SystemName labels the system the model was built for
	// (diagnostics only — it is excluded from ModelKey).
	SystemName string
	// Components is the component count C; per-request lethality
	// vectors must have exactly this length.
	Components int
	// M is the truncation point the ROMDD was built for.
	M int
	// GroupSeq maps MV level → group index (0 = the defect-count
	// variable w, l ≥ 1 = the lethal-defect variable v_l), exactly as
	// the order plan produced it.
	GroupSeq []int
	// Frozen is the compiled ROMDD.
	Frozen *mdd.Frozen
	// Build pins the provenance scalars of the one-time build.
	Build BuildSummary
}

// BuildSummary carries the structural outcome of the one-time build —
// the scalars reports print and the bit-identity tests compare. All
// fields are exact integers or exactly-reproducible float64s, so a
// loaded model can be asserted `==` against a fresh build.
type BuildSummary struct {
	// Yield and ErrorBound are the build-time defaults: the yield under
	// the distribution the model was compiled with, and the tail mass
	// beyond M.
	Yield      float64
	ErrorBound float64
	// PL and LambdaPrime echo the build-time lethal model.
	PL          float64
	LambdaPrime float64
	// GGates/BinaryVars size the synthesized G function;
	// CodedROBDDSize/ROMDDSize the diagrams.
	GGates         int
	BinaryVars     int
	CodedROBDDSize int
	ROMDDSize      int
}

// Snapshot extracts the Reevaluator's persistable state. The snapshot
// shares the (immutable) frozen ROMDD with the Reevaluator and copies
// everything else, so it is safe to use concurrently with ongoing
// evaluations.
func (r *Reevaluator) Snapshot() *Snapshot {
	return &Snapshot{
		EngineRevision: EngineRevision,
		SystemName:     r.sys.Name,
		Components:     len(r.sys.Components),
		M:              r.m,
		GroupSeq:       append([]int(nil), r.groupSeq...),
		Frozen:         r.frozen,
		Build: BuildSummary{
			Yield:          r.Result.Yield,
			ErrorBound:     r.Result.ErrorBound,
			PL:             r.Result.PL,
			LambdaPrime:    r.Result.LambdaPrime,
			GGates:         r.Result.GGates,
			BinaryVars:     r.Result.BinaryVars,
			CodedROBDDSize: r.Result.CodedROBDDSize,
			ROMDDSize:      r.Result.ROMDDSize,
		},
	}
}

// Validate cross-checks the snapshot's metadata against its frozen
// ROMDD: engine revision, component count, truncation point, the
// group sequence (a permutation of {0..M} with exactly one w), and the
// per-level domains the evaluation's probability tables will be sized
// to. A snapshot that passes cannot make Yield/YieldRaw/Sweep read out
// of bounds — decoders call this before handing a snapshot out.
func (s *Snapshot) Validate() error {
	if s.EngineRevision != EngineRevision {
		return fmt.Errorf("yield: snapshot built by engine revision %d, this engine is revision %d", s.EngineRevision, EngineRevision)
	}
	if s.Frozen == nil {
		return fmt.Errorf("yield: snapshot has no ROMDD")
	}
	if s.Components < 2 {
		return fmt.Errorf("yield: snapshot has %d components, need ≥ 2", s.Components)
	}
	if s.M < 0 {
		return fmt.Errorf("yield: snapshot has M = %d < 0", s.M)
	}
	if len(s.GroupSeq) != s.M+1 {
		return fmt.Errorf("yield: snapshot GroupSeq has %d entries, want M+1 = %d", len(s.GroupSeq), s.M+1)
	}
	if got := s.Frozen.NumVars(); got != s.M+1 {
		return fmt.Errorf("yield: snapshot ROMDD has %d variables, want M+1 = %d", got, s.M+1)
	}
	seen := make([]bool, len(s.GroupSeq))
	for mvLevel, gi := range s.GroupSeq {
		if gi < 0 || gi > s.M {
			return fmt.Errorf("yield: snapshot GroupSeq[%d] = %d outside [0,%d]", mvLevel, gi, s.M)
		}
		if seen[gi] {
			return fmt.Errorf("yield: snapshot GroupSeq repeats group %d", gi)
		}
		seen[gi] = true
		want := s.Components
		if gi == 0 {
			want = s.M + 2
		}
		if got := s.Frozen.Domain(mvLevel); got != want {
			return fmt.Errorf("yield: snapshot ROMDD level %d (group %d) has domain %d, want %d", mvLevel, gi, got, want)
		}
	}
	if got := s.Frozen.Size(); got != s.Build.ROMDDSize {
		return fmt.Errorf("yield: snapshot declares %d ROMDD nodes, arena has %d", s.Build.ROMDDSize, got)
	}
	return nil
}

// RestoreReevaluator turns a snapshot back into a live Reevaluator.
// The restored instance evaluates bit-identically to the one the
// snapshot was taken from: it shares the same frozen ROMDD arena and
// the same group sequence, and Yield/YieldRaw/Sweep/Sensitivities are
// pure functions of those. Result carries the build provenance (phase
// timings are zero — the build did not run here); the ROMDD structural
// stats are recomputed from the arena.
//
// The snapshot is validated first; a snapshot from a hostile or
// corrupted source fails here rather than during evaluation.
func RestoreReevaluator(snap *Snapshot) (*Reevaluator, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	stats := snap.Frozen.ComputeStats()
	res := &Result{
		Yield:          snap.Build.Yield,
		ErrorBound:     snap.Build.ErrorBound,
		M:              snap.M,
		PL:             snap.Build.PL,
		LambdaPrime:    snap.Build.LambdaPrime,
		GGates:         snap.Build.GGates,
		BinaryVars:     snap.Build.BinaryVars,
		CodedROBDDSize: snap.Build.CodedROBDDSize,
		ROMDDSize:      snap.Build.ROMDDSize,
	}
	res.Stats.ROMDDPerLevel = stats.PerLevel
	res.Stats.ROMDDMaxWidth = stats.MaxWidth
	if res.ROMDDSize > 0 {
		res.Stats.ROBDDToROMDDRatio = float64(res.CodedROBDDSize) / float64(res.ROMDDSize)
	}
	// The stub system carries exactly what evaluation consults: the
	// component count (input-length checks) and the name (reports).
	// Lethalities and the fault tree live only in the build pipeline.
	sys := &System{Name: snap.SystemName, Components: make([]Component, snap.Components)}
	return &Reevaluator{
		sys:      sys,
		m:        snap.M,
		frozen:   snap.Frozen,
		groupSeq: append([]int(nil), snap.GroupSeq...),
		scratch:  new(sync.Pool),
		Result:   res,
	}, nil
}
