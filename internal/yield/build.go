package yield

import (
	"fmt"
	"time"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/convert"
	"socyield/internal/encode"
	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
)

// buildModel runs the one-time build — coded-ROBDD compilation and
// ROMDD conversion — filling res's phase timings, engine statistics
// and structural sizes in place. It is the shared core of Evaluate and
// NewReevaluator.
//
// Between the two phases the ROBDD manager releases its
// construction-only tables (ITE cache, unique-table buckets, traversal
// scratch): conversion only reads the coded ROBDD, and those tables
// would otherwise stay live through it and set the build's peak
// memory. The compile statistics are snapshotted before the release,
// so they still report the tables' final sizes.
//
// Each phase's bookkeeping (statistics snapshots, diagram sizes)
// runs inside that phase's span. sp is the caller's running phase
// span: buildModel ends it by opening compile with Next, opens convert
// the same way, and returns the convert span still running, so the
// caller's next phase starts the instant convert ends and the phase
// spans tile their parent. On error the returned span is the failing
// phase's, still running until the caller ends the parent, and res is
// consistently filled up to that phase; callers decide whether to
// publish it.
func (p *prepared) buildModel(sp *obs.Span, g *encode.GFunc, plan *order.Plan, res *Result) (*obs.Span, *mdd.Manager, mdd.Node, error) {
	sp = sp.Next("compile")
	p.opts.BuildState.StartPhase(obs.BuildCompile, 0)
	t0 := time.Now()
	bm := bdd.New(g.Netlist.NumInputs(), p.opts.bddManagerOptions()...)
	broot, err := compile.Netlist(bm, g.Netlist, plan.BinaryLevels,
		compile.WithBuildState(p.opts.BuildState), compile.WithTracer(p.opts.Tracer))
	res.Phases.Compile = time.Since(t0)
	res.Stats.BDD = bm.Stats()
	res.Stats.CompilePeakLive = bm.ResetPeakLive()
	res.ROBDDPeak = res.Stats.CompilePeakLive
	if err != nil {
		return sp, nil, mdd.False, fmt.Errorf("yield: compiling coded ROBDD: %w", err)
	}
	res.CodedROBDDSize = bm.Size(broot)

	sp = sp.Next("convert")
	p.opts.BuildState.StartPhase(obs.BuildConvert, 0)
	groupOf, bitOf := groupMeta(g)
	spec, err := convert.SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
	if err != nil {
		return sp, nil, mdd.False, err
	}
	t0 = time.Now()
	bm.ReleaseTables()
	mm, err := mdd.New(spec.Domains, mdd.WithNodeLimit(p.opts.NodeLimit))
	if err != nil {
		return sp, nil, mdd.False, err
	}
	mroot, err := convert.ToMDDWithStats(bm, broot, mm, spec, &res.Stats.Convert,
		convert.WithBuildState(p.opts.BuildState), convert.WithTracer(p.opts.Tracer))
	res.Phases.Convert = time.Since(t0)
	res.Stats.MDD = mm.BuildStats()
	res.Stats.ConvertPeakLive = bm.PeakLive()
	res.ROBDDPeak = max(res.ROBDDPeak, res.Stats.ConvertPeakLive)
	if err != nil {
		return sp, nil, mdd.False, fmt.Errorf("yield: converting to ROMDD: %w", err)
	}
	finishModelStats(res, mm, mroot)
	return sp, mm, mroot, nil
}

func finishModelStats(res *Result, mm *mdd.Manager, mroot mdd.Node) {
	ms := mm.ComputeStats(mroot)
	res.ROMDDSize = ms.Nodes
	res.Stats.ROMDDPerLevel = ms.PerLevel
	res.Stats.ROMDDMaxWidth = ms.MaxWidth
	if res.ROMDDSize > 0 {
		res.Stats.ROBDDToROMDDRatio = float64(res.CodedROBDDSize) / float64(res.ROMDDSize)
	}
}
