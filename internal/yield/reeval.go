package yield

import (
	"fmt"
	"sync"
	"time"

	"socyield/internal/defects"
	"socyield/internal/encode"
	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
)

// Reevaluator holds the ROMDD of a system built once for a fixed
// truncation point M, and reevaluates the yield for different defect
// models without rebuilding any decision diagram. The probability
// traversal is linear in the ROMDD size, so what-if sweeps over
// per-component lethalities P_i (e.g. from successive layout
// iterations) or over defect distributions cost microseconds instead
// of the full pipeline.
//
// The truncation point is fixed at construction: reevaluations supply
// their own Q'-table truncated at the same M.
//
// After construction the Reevaluator is immutable — the ROMDD lives in
// a frozen snapshot and every evaluation takes its own scratch state
// from a pool — so Yield, YieldRaw and Sensitivities may be called
// concurrently from any number of goroutines on one shared instance.
// Sweep fans a whole grid of evaluation points out over a worker pool.
type Reevaluator struct {
	sys      *System
	m        int
	frozen   *mdd.Frozen
	groupSeq []int
	// scratch pools *evalScratch values sized for this model, so a
	// cached evaluation allocates nothing node-sized. It is a separate
	// allocation because the runtime's list of pools points at each
	// pool until the next GC; a pool embedded here would keep a dropped
	// Reevaluator, frozen ROMDD included, alive for an extra GC cycle.
	scratch *sync.Pool
	// Stats of the one-time build.
	Result *Result
}

// evalScratch is the working memory of one evaluation: the ROMDD
// pass buffer and the probability table that feeds it. One goroutine
// owns it at a time.
type evalScratch struct {
	buf    mdd.ProbBuffer
	pprime []float64
	wRow   []float64
	probs  [][]float64
}

func (r *Reevaluator) getScratch() *evalScratch {
	if sc, ok := r.scratch.Get().(*evalScratch); ok {
		return sc
	}
	return &evalScratch{
		pprime: make([]float64, len(r.sys.Components)),
		wRow:   make([]float64, r.m+2),
		probs:  make([][]float64, len(r.groupSeq)),
	}
}

func (r *Reevaluator) putScratch(sc *evalScratch) { r.scratch.Put(sc) }

// NewReevaluator runs the construction phases of Evaluate (using
// opts.Defects only to fix M) and retains the ROMDD. The one-time
// build's per-phase wall times, structural statistics and engine
// counters are retained in Result (and stream into Options.Recorder
// when set).
func NewReevaluator(sys *System, opts Options) (*Reevaluator, error) {
	rec := opts.Recorder
	bs := opts.BuildState
	// As in Evaluate: publisher start/stop stays outside the root span,
	// and the phases are one First/Next chain that tiles it.
	stopLive := startLivePublisher(rec, bs)
	defer stopLive()
	buildSpan := rec.Span("reevaluator-build")
	defer buildSpan.End()
	bs.StartPhase(obs.BuildPrepare, 0)
	defer bs.Finish()

	sp := buildSpan.First("prepare")
	t0 := time.Now()
	p, err := prepare(sys, opts)
	prepDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	sp = sp.Next("encode")
	t0 = time.Now()
	g, err := encode.BuildG(sys.FaultTree, p.m)
	encDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := p.baseResult(g)
	res.Phases.Prepare = prepDur
	res.Phases.Encode = encDur

	sp = sp.Next("order")
	t0 = time.Now()
	plan, err := order.Assemble(g.Netlist, g.Groups, p.opts.MVOrder, p.opts.BitOrder)
	res.Phases.Order = time.Since(t0)
	if err != nil {
		return nil, err
	}

	sp, mm, mroot, err := p.buildModel(sp, g, plan, res)
	if err != nil {
		return nil, err
	}

	// Freeze the ROMDD into an immutable compact snapshot: the manager
	// (with its construction hash tables) becomes garbage, and every
	// later evaluation is a goroutine-safe linear pass.
	sp.Next("eval") // ends with the root span
	bs.StartPhase(obs.BuildEval, 0)
	t0 = time.Now()
	frozen := mm.Freeze(mroot)
	// Fill the default model's yield for convenience.
	pg1, err := frozen.Prob(p.probTable(plan.GroupSeq))
	res.Phases.Eval = time.Since(t0)
	if err != nil {
		return nil, err
	}
	res.Yield = 1 - pg1
	buildSpan.End()
	res.Stats.publish(rec)
	publishResult(rec, res)
	return &Reevaluator{
		sys:      sys,
		m:        p.m,
		frozen:   frozen,
		groupSeq: plan.GroupSeq,
		scratch:  new(sync.Pool),
		Result:   res,
	}, nil
}

// M returns the truncation point the ROMDD was built for.
func (r *Reevaluator) M() int { return r.m }

// NumComponents returns the component count of the system the ROMDD
// was built for — the length Yield/YieldRaw/Sensitivities inputs must
// have. Callers sharing a Reevaluator through a keyed cache use it to
// cross-check a request against the compiled model.
func (r *Reevaluator) NumComponents() int { return len(r.sys.Components) }

// YieldRaw reevaluates with explicit lethal-model inputs: pprime is
// P'_1..P'_C (must sum to ≈1), qprime is Q'_0..Q'_M and tail the
// remaining mass (qprime must have exactly M+1 entries).
func (r *Reevaluator) YieldRaw(pprime, qprime []float64, tail float64) (float64, error) {
	sc := r.getScratch()
	defer r.putScratch(sc)
	return r.yieldRawWith(pprime, qprime, tail, sc)
}

// yieldRawWith is YieldRaw on the given scratch space. The arithmetic
// does not depend on the scratch, so every caller gets the same bits.
func (r *Reevaluator) yieldRawWith(pprime, qprime []float64, tail float64, sc *evalScratch) (float64, error) {
	if len(pprime) != len(r.sys.Components) {
		return 0, fmt.Errorf("yield: pprime has %d entries, want %d", len(pprime), len(r.sys.Components))
	}
	if len(qprime) != r.m+1 {
		return 0, fmt.Errorf("yield: qprime has %d entries, want %d", len(qprime), r.m+1)
	}
	wRow := sc.wRow
	copy(wRow, qprime)
	wRow[r.m+1] = tail
	probs := sc.probs
	for mvLevel, gi := range r.groupSeq {
		if gi == 0 {
			probs[mvLevel] = wRow
		} else {
			probs[mvLevel] = pprime
		}
	}
	pg1, err := r.frozen.ProbWith(probs, &sc.buf)
	if err != nil {
		return 0, err
	}
	return 1 - pg1, nil
}

// Sensitivities returns ∂Y/∂P_i for every component by central finite
// differences on the ROMDD (two traversals per component, no diagram
// rebuilding). The derivative is taken with respect to the component's
// absolute lethality P_i, everything else fixed — the quantity a
// designer trades layout area against. delta is the relative step
// (default 1e-4 of P_L when 0).
func (r *Reevaluator) Sensitivities(ps []float64, dist defects.Distribution, delta float64) ([]float64, error) {
	if len(ps) != len(r.sys.Components) {
		return nil, fmt.Errorf("yield: ps has %d entries, want %d", len(ps), len(r.sys.Components))
	}
	pl := 0.0
	for _, p := range ps {
		pl += p
	}
	if delta == 0 {
		delta = 1e-4 * pl
	}
	if !(delta > 0) {
		return nil, fmt.Errorf("yield: non-positive step %v", delta)
	}
	out := make([]float64, len(ps))
	work := make([]float64, len(ps))
	sc := r.getScratch()
	defer r.putScratch(sc)
	for i := range ps {
		copy(work, ps)
		lo := ps[i] - delta
		hi := ps[i] + delta
		if lo < 0 {
			lo = 0
		}
		work[i] = hi
		yHi, _, err := r.yieldWith(work, dist, sc)
		if err != nil {
			return nil, err
		}
		work[i] = lo
		yLo, _, err := r.yieldWith(work, dist, sc)
		if err != nil {
			return nil, err
		}
		out[i] = (yHi - yLo) / (hi - lo)
	}
	return out, nil
}

// Yield reevaluates for new per-component lethalities ps (the paper's
// P_i, summing to the new P_L) and a new defect distribution,
// performing the lethal transform internally. The truncation point
// stays at the construction-time M; the returned error bound is the
// new tail mass beyond it.
func (r *Reevaluator) Yield(ps []float64, dist defects.Distribution) (yield, errorBound float64, err error) {
	sc := r.getScratch()
	defer r.putScratch(sc)
	return r.yieldWith(ps, dist, sc)
}

// yieldWith is Yield on the given scratch space; it is the shared core
// of the serial and the parallel (Sweep) paths, which keeps their
// results bit-identical by construction.
func (r *Reevaluator) yieldWith(ps []float64, dist defects.Distribution, sc *evalScratch) (yield, errorBound float64, err error) {
	if len(ps) != len(r.sys.Components) {
		return 0, 0, fmt.Errorf("yield: ps has %d entries, want %d", len(ps), len(r.sys.Components))
	}
	pl := 0.0
	for i, p := range ps {
		if !(p >= 0) {
			return 0, 0, fmt.Errorf("yield: component %d has P = %v", i, p)
		}
		pl += p
	}
	if !(pl > 0 && pl <= 1+1e-12) {
		return 0, 0, fmt.Errorf("yield: P_L = %v outside (0,1]", pl)
	}
	lethal, err := defects.Thin(dist, pl)
	if err != nil {
		return 0, 0, err
	}
	qprime, tail, err := defects.PMFTable(lethal, r.m)
	if err != nil {
		return 0, 0, err
	}
	pprime := sc.pprime
	for i, p := range ps {
		pprime[i] = p / pl
	}
	y, err := r.yieldRawWith(pprime, qprime, tail, sc)
	if err != nil {
		return 0, 0, err
	}
	return y, tail, nil
}
