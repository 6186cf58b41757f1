package yield

import (
	"testing"

	"socyield/internal/defects"
	"socyield/internal/obs"
)

// TestEvaluateRecorder drives one full evaluation with a recorder
// attached and checks the instrumentation contract the CLI's
// -metrics-json output depends on: nonzero apply-cache activity, the
// truncation point M published as a gauge, engine stats mirrored in
// Result.Stats, and a span tree whose phase children cover (nearly all
// of) the root evaluation span.
func TestEvaluateRecorder(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist, err := defects.NewNegativeBinomial(2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRegistry()
	res, err := Evaluate(sys, Options{Defects: dist, Epsilon: 1e-4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}

	snap := rec.Snapshot()
	hits := snap.Counters["bdd.apply_cache_hits"]
	misses := snap.Counters["bdd.apply_cache_misses"]
	if misses <= 0 {
		t.Errorf("bdd.apply_cache_misses = %d, want > 0", misses)
	}
	if hits < 0 {
		t.Errorf("bdd.apply_cache_hits = %d, want ≥ 0", hits)
	}
	if created := snap.Counters["bdd.nodes_created"]; created <= 0 {
		t.Errorf("bdd.nodes_created = %d, want > 0", created)
	}
	if n := snap.Counters["mdd.nodes_created"]; n <= 0 {
		t.Errorf("mdd.nodes_created = %d, want > 0", n)
	}
	if m := snap.Gauges["yield.m"]; m != int64(res.M) {
		t.Errorf("yield.m gauge = %d, want %d", m, res.M)
	}
	if y := snap.FloatGauges["yield.value"]; y != res.Yield {
		t.Errorf("yield.value gauge = %v, want %v", y, res.Yield)
	}
	if b := snap.FloatGauges["yield.error_bound"]; b != res.ErrorBound {
		t.Errorf("yield.error_bound gauge = %v, want %v", b, res.ErrorBound)
	}

	// Result.Stats must mirror what was published.
	if res.Stats.BDD.ApplyCacheMisses != misses {
		t.Errorf("Result.Stats misses = %d, registry %d", res.Stats.BDD.ApplyCacheMisses, misses)
	}
	if res.Stats.MDD.Nodes <= 0 {
		t.Errorf("Result.Stats.MDD.Nodes = %d, want > 0", res.Stats.MDD.Nodes)
	}
	if len(res.Stats.Convert.EntryNodes) == 0 {
		t.Error("Result.Stats.Convert.EntryNodes empty")
	}
	if res.Stats.ROBDDToROMDDRatio <= 0 {
		t.Errorf("ROBDDToROMDDRatio = %v, want > 0", res.Stats.ROBDDToROMDDRatio)
	}

	// Span tree: one ended root named "evaluate" whose phase children
	// cover ≥ 95% of its duration.
	if len(snap.Spans) != 1 {
		t.Fatalf("got %d root spans, want 1", len(snap.Spans))
	}
	root := snap.Spans[0]
	if root.Name != "evaluate" || root.Running {
		t.Fatalf("root span = %+v, want ended 'evaluate'", root)
	}
	want := map[string]bool{
		"prepare": false, "encode": false, "order": false,
		"compile": false, "convert": false, "eval": false,
	}
	covered := 0.0
	for _, c := range root.Children {
		if _, ok := want[c.Name]; !ok {
			t.Errorf("unexpected phase span %q", c.Name)
			continue
		}
		want[c.Name] = true
		covered += c.Seconds
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("phase span %q missing", name)
		}
	}
	if root.Seconds > 0 && covered < 0.95*root.Seconds {
		t.Errorf("phase spans cover %.1f%% of the root span, want ≥ 95%%", 100*covered/root.Seconds)
	}

	// Phases durations must be consistent with the span totals.
	if res.Phases.Total() <= 0 {
		t.Error("Phases.Total() not positive")
	}
}

// TestEvaluateNilRecorder checks the disabled path end to end: nil
// recorder, identical numeric result, zeroed registry interactions.
func TestEvaluateNilRecorder(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist, err := defects.NewNegativeBinomial(2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Evaluate(sys, Options{Defects: dist, Epsilon: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRegistry()
	instr, err := Evaluate(sys, Options{Defects: dist, Epsilon: 1e-4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Yield != instr.Yield || plain.ErrorBound != instr.ErrorBound || plain.M != instr.M {
		t.Errorf("instrumented run changed the result: %v/%v vs %v/%v",
			plain.Yield, plain.ErrorBound, instr.Yield, instr.ErrorBound)
	}
	// Stats are collected even without a recorder (plain snapshots).
	if plain.Stats.BDD.NodesCreated <= 0 {
		t.Errorf("nil-recorder run lost engine stats: %+v", plain.Stats.BDD)
	}
}

// TestReevaluatorRecorder checks the build-once path fills Phases (the
// -bench-json split) and streams sweep metrics.
func TestReevaluatorRecorder(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist, err := defects.NewNegativeBinomial(2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRegistry()
	re, err := NewReevaluator(sys, Options{Defects: dist, Epsilon: 1e-4, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if re.Result.Phases.Total() <= 0 {
		t.Error("reevaluator build did not fill Result.Phases")
	}
	if re.Result.Stats.BDD.NodesCreated <= 0 {
		t.Error("reevaluator build did not fill Result.Stats")
	}

	dists := make([]defects.Distribution, 8)
	for i := range dists {
		d, err := defects.NewNegativeBinomial(0.5+0.25*float64(i), 2)
		if err != nil {
			t.Fatal(err)
		}
		dists[i] = d
	}
	ps := []float64{0.2, 0.15, 0.15}
	out := re.Sweep(LambdaGrid(ps, dists), SweepOptions{Workers: 2, Recorder: rec})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("sweep point %d: %v", i, r.Err)
		}
	}
	snap := rec.Snapshot()
	if n := snap.Counters["sweep.points"]; n != int64(len(dists)) {
		t.Errorf("sweep.points = %d, want %d", n, len(dists))
	}
	if snap.Histograms["sweep.point_ns"].Count != int64(len(dists)) {
		t.Errorf("sweep.point_ns count = %d, want %d", snap.Histograms["sweep.point_ns"].Count, len(dists))
	}
	if busy := snap.Counters["sweep.busy_ns"]; busy <= 0 {
		t.Errorf("sweep.busy_ns = %d, want > 0", busy)
	}
	if w := snap.Gauges["sweep.workers"]; w != 2 {
		t.Errorf("sweep.workers = %d, want 2", w)
	}

	// An uninstrumented sweep must agree bit for bit.
	plain := re.Sweep(LambdaGrid(ps, dists), SweepOptions{Workers: 1})
	for i := range out {
		if out[i] != plain[i] {
			t.Errorf("instrumented sweep point %d differs: %+v vs %+v", i, out[i], plain[i])
		}
	}
}

// TestBuildPublishesCompileTableSizes pins the order of the build's
// bookkeeping: the ROBDD manager releases its ITE cache and unique
// table before conversion, so the published table sizes must come
// from the compile-time snapshot taken before that release, not from
// the released (empty) manager.
func TestBuildPublishesCompileTableSizes(t *testing.T) {
	sys := tmrSystem(0.2, 0.15, 0.15)
	dist, err := defects.NewNegativeBinomial(2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, rec *obs.Registry, res *Result) {
		t.Helper()
		bs := res.Stats.BDD
		if bs.ApplyCacheSize <= 0 || bs.UniqueTableBuckets <= 0 {
			t.Fatalf("compile snapshot has %d cache entries, %d buckets; want both > 0", bs.ApplyCacheSize, bs.UniqueTableBuckets)
		}
		snap := rec.Snapshot()
		if g := snap.Gauges["bdd.apply_cache_entries"]; g != int64(bs.ApplyCacheSize) {
			t.Errorf("bdd.apply_cache_entries = %d, want %d", g, bs.ApplyCacheSize)
		}
		if g := snap.Gauges["bdd.unique_table_buckets"]; g != int64(bs.UniqueTableBuckets) {
			t.Errorf("bdd.unique_table_buckets = %d, want %d", g, bs.UniqueTableBuckets)
		}
	}
	t.Run("Evaluate", func(t *testing.T) {
		rec := obs.NewRegistry()
		res, err := Evaluate(sys, Options{Defects: dist, Epsilon: 1e-4, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		check(t, rec, res)
	})
	t.Run("NewReevaluator", func(t *testing.T) {
		rec := obs.NewRegistry()
		re, err := NewReevaluator(sys, Options{Defects: dist, Epsilon: 1e-4, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		check(t, rec, re.Result)
	})
}
