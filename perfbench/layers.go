package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"socyield/internal/bdd"
	"socyield/internal/compile"
	"socyield/internal/convert"
	"socyield/internal/defects"
	"socyield/internal/encode"
	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
	"socyield/internal/yield"
)

// pipeline is one build replayed from the layers' public calls, with
// each layer timed from outside.
type pipeline struct {
	Yield          float64
	M              int
	CodedROBDDSize int
	ROMDDSize      int

	Prepare, Encode, Order, Compile, Convert, Freeze, Prob time.Duration

	BDD         bdd.Stats // after compilation
	CompilePeak int
	ConvertPeak int
	Conv        convert.Stats
	// HeapBytes is the Go heap high-water during compile and convert
	// above the heap in use before them.
	HeapBytes uint64
}

// canonicalDist is the defect model of a model's pinned yield.
func canonicalDist(m model) defects.Distribution {
	d, err := defects.NewNegativeBinomial(canonicalLambda, m.Alpha)
	if err != nil {
		panic(err) // the model tables hold valid parameters
	}
	return d
}

// orderings parses a model's ordering pair.
func orderings(m model) (order.MVKind, order.BitKind, error) {
	mv, err := order.ParseMVKind(m.MVOrder)
	if err != nil {
		return 0, 0, err
	}
	bk, err := order.ParseBitKind(m.BitOrder)
	return mv, bk, err
}

// replayBuild rebuilds sys's model the way yield.Evaluate does, one
// layer call at a time, under spans that are children of parent:
//
//  1. defects.Thin, defects.TruncationPoint, defects.PMFTable
//  2. encode.BuildG
//  3. order.Assemble
//  4. bdd.New + compile.Netlist
//  5. mdd.New + convert.ToMDDWithStats
//  6. Freeze + Frozen.Prob
//
// tr, when non-nil, receives the per-gate and per-layer work events.
func replayBuild(parent *obs.Span, tr *obs.Tracer, sys *yield.System, m model, dist defects.Distribution) (*pipeline, error) {
	mv, bk, err := orderings(m)
	if err != nil {
		return nil, err
	}
	var p pipeline
	step := func(name string, d *time.Duration, f func() error) error {
		sp := parent.Child(name)
		t0 := time.Now()
		err := f()
		*d = time.Since(t0)
		sp.End()
		return err
	}

	pl := sys.PL()
	var qprime []float64
	var tail float64
	if err := step("defects.prepare", &p.Prepare, func() error {
		lethal, err := defects.Thin(dist, pl)
		if err != nil {
			return err
		}
		if p.M, _, err = defects.TruncationPoint(lethal, m.Epsilon); err != nil {
			return err
		}
		qprime, tail, err = defects.PMFTable(lethal, p.M)
		return err
	}); err != nil {
		return nil, err
	}

	var g *encode.GFunc
	if err := step("encode.BuildG", &p.Encode, func() (err error) {
		g, err = encode.BuildG(sys.FaultTree, p.M)
		return err
	}); err != nil {
		return nil, err
	}

	var plan *order.Plan
	if err := step("order.Assemble", &p.Order, func() (err error) {
		plan, err = order.Assemble(g.Netlist, g.Groups, mv, bk)
		return err
	}); err != nil {
		return nil, err
	}

	heap := startHeapWatch()
	var bm *bdd.Manager
	var broot bdd.Node
	if err := step("compile.Netlist", &p.Compile, func() (err error) {
		bm = bdd.New(g.Netlist.NumInputs())
		broot, err = compile.Netlist(bm, g.Netlist, plan.BinaryLevels, compile.WithTracer(tr))
		return err
	}); err != nil {
		heap.stop()
		return nil, err
	}
	p.BDD = bm.Stats()
	p.CompilePeak = bm.ResetPeakLive()
	p.CodedROBDDSize = bm.Size(broot)

	groupOf := make([]int, g.Netlist.NumInputs())
	bitOf := make([]uint, g.Netlist.NumInputs())
	for gi, grp := range g.Groups {
		for j, ord := range grp.Bits {
			groupOf[ord] = gi
			bitOf[ord] = uint(len(grp.Bits) - 1 - j)
		}
	}
	var mm *mdd.Manager
	var mroot mdd.Node
	if err := step("convert.ToMDD", &p.Convert, func() error {
		spec, err := convert.SpecFromPlanLevels(plan.BinaryLevels, groupOf, bitOf, plan.GroupSeq, g.Domains())
		if err != nil {
			return err
		}
		if mm, err = mdd.New(spec.Domains); err != nil {
			return err
		}
		mroot, err = convert.ToMDDWithStats(bm, broot, mm, spec, &p.Conv, convert.WithTracer(tr))
		return err
	}); err != nil {
		heap.stop()
		return nil, err
	}
	p.ConvertPeak = bm.PeakLive()
	p.HeapBytes = heap.stop()

	var frozen *mdd.Frozen
	step("mdd.Freeze", &p.Freeze, func() error {
		frozen = mm.Freeze(mroot)
		return nil
	})
	p.ROMDDSize = frozen.Size()
	probs := probTable(plan.GroupSeq, p.M, sys, qprime, tail)
	var probAll time.Duration
	if err := step("mdd.Prob", &probAll, func() error {
		pg1, d, err := timeProb(frozen, probs)
		p.Yield, p.Prob = 1-pg1, d
		return err
	}); err != nil {
		return nil, err
	}
	return &p, nil
}

// probReps is how many probability passes timeProb takes the median of.
const probReps = 5

// timeProb runs Frozen.Prob probReps times and returns its value and
// median duration.
func timeProb(f *mdd.Frozen, probs [][]float64) (float64, time.Duration, error) {
	var ds []time.Duration
	var v float64
	for range probReps {
		t0 := time.Now()
		pv, err := f.Prob(probs)
		ds = append(ds, time.Since(t0))
		if err != nil {
			return 0, 0, err
		}
		v = pv
	}
	return v, time.Duration(medianDur(ds, 1)), nil
}

// probTable lays out the per-MV-level value distributions of a model
// whose MV levels follow groupSeq: [Q'_0..Q'_M, tail] for the defect
// count w (group 0), the normalized lethalities P'_i for every v_l.
func probTable(groupSeq []int, m int, sys *yield.System, qprime []float64, tail float64) [][]float64 {
	pl := sys.PL()
	pprime := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		pprime[i] = c.P / pl
	}
	wRow := append(append(make([]float64, 0, m+2), qprime...), tail)
	out := make([][]float64, len(groupSeq))
	for lvl, gi := range groupSeq {
		if gi == 0 {
			out[lvl] = wRow
		} else {
			out[lvl] = pprime
		}
	}
	return out
}

// checkReplay compares a replayed build with the library's own build
// of the same model; any difference is a failure.
func checkReplay(name string, p *pipeline, yieldV float64, m, robdd, romdd int) error {
	if p.Yield != yieldV || p.M != m || p.CodedROBDDSize != robdd || p.ROMDDSize != romdd {
		return fmt.Errorf("%s: layer replay gives yield %v, M %d, coded ROBDD %d, ROMDD %d; the library gives %v, %d, %d, %d",
			name, p.Yield, p.M, p.CodedROBDDSize, p.ROMDDSize, yieldV, m, robdd, romdd)
	}
	return nil
}

// heapWatch samples the Go heap every few milliseconds and keeps its
// maximum, for the bytes-per-live-node ratio of a build.
type heapWatch struct {
	base uint64
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{base: readHeap(), done: make(chan struct{})}
	h.peak = h.base
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				h.peak = max(h.peak, readHeap())
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the high-water above the base.
func (h *heapWatch) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	h.peak = max(h.peak, readHeap())
	return h.peak - h.base
}
