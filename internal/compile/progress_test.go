package compile

import (
	"testing"

	"socyield/internal/bdd"
	"socyield/internal/logic"
	"socyield/internal/obs"
)

// progressNetlist builds a small multi-gate netlist for the
// instrumentation tests.
func progressNetlist() (*logic.Netlist, int) {
	n := logic.New()
	a, b, c, d := n.Input("a"), n.Input("b"), n.Input("c"), n.Input("d")
	n.SetOutput(n.Or(n.And(a, b), n.Xor(c, d), n.Not(a)))
	return n, 4
}

func TestCompileReportsProgress(t *testing.T) {
	n, k := progressNetlist()
	bs := obs.NewBuildState()
	bs.StartPhase(obs.BuildCompile, 0)
	tr := obs.NewTracer(64)

	m := bdd.New(k)
	root, err := Netlist(m, n, identityLevels(k), WithBuildState(bs), WithTracer(tr))
	if err != nil {
		t.Fatalf("Netlist: %v", err)
	}
	defer m.Deref(root)

	st := bs.Snapshot()
	if st.PhaseTotal == 0 {
		t.Fatal("compile did not publish the gate total")
	}
	if st.PhaseDone != st.PhaseTotal {
		t.Errorf("done = %d, total = %d; want equal after completion", st.PhaseDone, st.PhaseTotal)
	}
	if st.LiveNodes <= 0 {
		t.Errorf("live nodes = %d, want > 0", st.LiveNodes)
	}
	evs := tr.Events()
	if int64(len(evs)) != st.PhaseTotal {
		t.Errorf("tracer recorded %d events, want one per gate (%d)", len(evs), st.PhaseTotal)
	}
	for _, ev := range evs {
		if ev.Cat != "compile" || ev.Worker != 0 {
			t.Errorf("serial event %+v, want cat=compile worker=0", ev)
		}
	}
}

// TestCompileUninstrumented pins the no-op discipline: nil options
// change nothing about the result.
func TestCompileUninstrumented(t *testing.T) {
	n, k := progressNetlist()
	m1 := bdd.New(k)
	plain, err := Netlist(m1, n, identityLevels(k))
	if err != nil {
		t.Fatalf("Netlist: %v", err)
	}
	m2 := bdd.New(k)
	traced, err := Netlist(m2, n, identityLevels(k), WithBuildState(nil), WithTracer(nil))
	if err != nil {
		t.Fatalf("Netlist with nil options: %v", err)
	}
	if m1.Size(plain) != m2.Size(traced) {
		t.Errorf("instrumentation changed the diagram: %d vs %d nodes", m1.Size(plain), m2.Size(traced))
	}
	m1.Deref(plain)
	m2.Deref(traced)
}
