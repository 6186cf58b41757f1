package convert

import (
	"math/rand"
	"sync"
	"testing"

	"socyield/internal/mdd"
	"socyield/internal/order"
)

// TestToMDDParallelMatchesSerial converts the same coded ROBDD with
// the serial recursion and then, at several worker counts, on that
// many goroutines at once — each from a coded ROBDD and into an MDD
// manager of its own, as parallel model builds do — and requires from
// every parallel conversion the serial ROMDD (root handle, size,
// per-level widths) and identical per-layer statistics.
func TestToMDDParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		c := 3 + rng.Intn(4)
		f := randomMonotoneFaultTree(rng, c)
		m := 2 + rng.Intn(3)
		mvKinds := []order.MVKind{order.MVWeight, order.MVWV, order.MVTopology}
		mv := mvKinds[rng.Intn(len(mvKinds))]
		p := buildPipeline(t, f, m, mv, order.BitML)

		mm, err := mdd.New(p.spec.Domains)
		if err != nil {
			t.Fatal(err)
		}
		var sst Stats
		sroot, err := ToMDDWithStats(p.bm, p.root, mm, p.spec, &sst)
		if err != nil {
			t.Fatalf("serial ToMDD: %v", err)
		}
		want := mm.ComputeStats(sroot)
		for _, workers := range []int{1, 2, 4, 8} {
			ps := make([]*pipeline, workers)
			mms := make([]*mdd.Manager, workers)
			for w := range ps {
				ps[w] = buildPipeline(t, f, m, mv, order.BitML)
				if mms[w], err = mdd.New(ps[w].spec.Domains); err != nil {
					t.Fatal(err)
				}
			}
			roots := make([]mdd.Node, workers)
			pst := make([]Stats, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			for w := range ps {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					roots[w], errs[w] = ToMDDWithStats(ps[w].bm, ps[w].root, mms[w], ps[w].spec, &pst[w])
				}(w)
			}
			wg.Wait()
			for w := range ps {
				if errs[w] != nil {
					t.Fatalf("trial %d workers=%d goroutine %d: ToMDD: %v", trial, workers, w, errs[w])
				}
				// A fresh manager fed the same conversion numbers its
				// nodes the same way, so equal ROMDDs have equal roots.
				if roots[w] != sroot {
					t.Fatalf("trial %d workers=%d goroutine %d: root %d, serial %d", trial, workers, w, roots[w], sroot)
				}
				got := mms[w].ComputeStats(roots[w])
				if got.Nodes != want.Nodes || len(got.PerLevel) != len(want.PerLevel) {
					t.Fatalf("trial %d workers=%d goroutine %d: ROMDD %d nodes over %d levels, serial %d over %d",
						trial, workers, w, got.Nodes, len(got.PerLevel), want.Nodes, len(want.PerLevel))
				}
				for l := range want.PerLevel {
					if got.PerLevel[l] != want.PerLevel[l] {
						t.Fatalf("trial %d workers=%d goroutine %d: level %d width %d, serial %d",
							trial, workers, w, l, got.PerLevel[l], want.PerLevel[l])
					}
				}
				if len(pst[w].EntryNodes) != len(sst.EntryNodes) {
					t.Fatalf("EntryNodes length %d != %d", len(pst[w].EntryNodes), len(sst.EntryNodes))
				}
				for g := range sst.EntryNodes {
					if pst[w].EntryNodes[g] != sst.EntryNodes[g] {
						t.Fatalf("trial %d workers=%d goroutine %d: EntryNodes[%d] = %d, serial %d",
							trial, workers, w, g, pst[w].EntryNodes[g], sst.EntryNodes[g])
					}
				}
				if pst[w].SimSteps != sst.SimSteps {
					t.Fatalf("trial %d workers=%d goroutine %d: SimSteps = %d, serial %d", trial, workers, w, pst[w].SimSteps, sst.SimSteps)
				}
			}
		}
	}
}
