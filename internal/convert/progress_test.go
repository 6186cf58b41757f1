package convert

import (
	"testing"

	"socyield/internal/mdd"
	"socyield/internal/obs"
	"socyield/internal/order"
)

func TestConvertReportsProgress(t *testing.T) {
	p := buildPipeline(t, fig2FaultTree(), 3, order.MVWeight, order.BitML)
	mm, err := mdd.New(p.spec.Domains)
	if err != nil {
		t.Fatal(err)
	}
	bs := obs.NewBuildState()
	bs.StartPhase(obs.BuildConvert, 0)
	tr := obs.NewTracer(16)
	var st Stats
	if _, err := ToMDDWithStats(p.bm, p.root, mm, p.spec, &st, WithBuildState(bs), WithTracer(tr)); err != nil {
		t.Fatalf("ToMDDWithStats: %v", err)
	}
	snap := bs.Snapshot()
	// The converter learns entry counts as it recurses, so the total
	// stays unknown, but every entry node is counted as done.
	var entries int64
	for _, n := range st.EntryNodes {
		entries += int64(n)
	}
	if snap.PhaseDone != entries {
		t.Errorf("done = %d, want the %d entry nodes", snap.PhaseDone, entries)
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Cat != "convert" || evs[0].Worker != 0 {
		t.Errorf("trace events %+v, want one convert event on worker 0", evs)
	}
}
