package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/obs"
	"socyield/internal/yield"
)

func allModels() map[string][]model {
	return map[string][]model{"build": buildModels, "serve-hit": hitModels, "serve-miss": missModels}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		models []model
		mix    []mixEntry
	}{{"serve-hit", hitModels, hitMix}, {"serve-miss", missModels, missMix}} {
		a := generate(7, tc.models, tc.mix)
		b := generate(7, tc.models, tc.mix)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different request lists", tc.name)
		}
		if reflect.DeepEqual(a, generate(8, tc.models, tc.mix)) {
			t.Errorf("%s: seeds 7 and 8 generated the same request list", tc.name)
		}
		for i := range a {
			if string(a[i].body(tc.models)) != string(b[i].body(tc.models)) {
				t.Fatalf("%s: request %d encodes differently", tc.name, i)
			}
		}

		counts := map[mixEntry]int{}
		for _, r := range a {
			counts[mixEntry{Model: r.Model, Sweep: r.Sweep}]++
			if r.Lambda < lambdaLo || r.Lambda > lambdaHi {
				t.Errorf("%s: λ %v outside the band", tc.name, r.Lambda)
			}
			for _, l := range r.Lambdas {
				if l < lambdaLo || l > lambdaHi {
					t.Errorf("%s: sweep λ %v outside the band", tc.name, l)
				}
			}
			if r.Sweep != (len(r.Lambdas) == sweepPoints) {
				t.Errorf("%s: request with Sweep=%v has %d λ points", tc.name, r.Sweep, len(r.Lambdas))
			}
			sum := 0.0
			for _, p := range r.Lethalities {
				sum += p
			}
			if len(r.Lethalities) != tc.models[r.Model].Comps || math.Abs(sum-lethalSum) > 1e-12 {
				t.Errorf("%s: %d lethalities summing to %v", tc.name, len(r.Lethalities), sum)
			}
		}
		for _, e := range tc.mix {
			if got := counts[mixEntry{Model: e.Model, Sweep: e.Sweep}]; got != e.Count {
				t.Errorf("%s: %d requests of %+v, want %d", tc.name, got, e, e.Count)
			}
		}
	}
}

func TestPassOrders(t *testing.T) {
	hit := generate(3, hitModels, hitMix)
	miss := generate(3, missModels, missMix)
	orders := map[string]func(seed int64, k int) []int{
		"shuffled": func(seed int64, k int) []int { return shuffled(seed, k, hit) },
		"cyclic":   func(seed int64, k int) []int { return cyclic(seed, k, miss, len(missModels)) },
	}
	for name, order := range orders {
		a := order(3, 0)
		if !reflect.DeepEqual(a, order(3, 0)) {
			t.Errorf("%s: pass 0 of seed 3 has two orders", name)
		}
		if reflect.DeepEqual(a, order(3, 1)) || reflect.DeepEqual(a, order(4, 0)) {
			t.Errorf("%s: different passes or seeds share an order", name)
		}
		seen := make([]bool, len(a))
		for _, i := range a {
			if seen[i] {
				t.Fatalf("%s: request %d sent twice", name, i)
			}
			seen[i] = true
		}
		if slices.Contains(seen, false) {
			t.Errorf("%s: order misses requests", name)
		}
	}
	// serve-miss rotates through all models before repeating one.
	order := cyclic(3, 0, miss, len(missModels))
	for n := len(missModels); n < len(order); n++ {
		if miss[order[n]].Model != miss[order[n-len(missModels)]].Model {
			t.Fatalf("cyclic order breaks the rotation at position %d", n)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {2, 0}, {10, 0}, {20, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := beyond(len(xs), 99); got != 10 {
		t.Errorf("%d samples beyond p99 of 1000, want 10", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile([]float64{3, 8}, 99); got != 8 {
		t.Errorf("p99 of two samples = %v, want the larger", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t 1234567 kB\nVmHWM:\t  524288 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 512 {
		t.Errorf("parseVmHWM = %v, %v; want 512 MB", got, err)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n", ""} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
	if rss, err := peakRSSMB(); err != nil || rss <= 0 {
		t.Errorf("peakRSSMB = %v, %v", rss, err)
	}
}

// TestReplayMatchesEvaluate checks the traced pipeline against
// yield.Evaluate on a small system: yield, M and both diagram sizes
// must be identical.
func TestReplayMatchesEvaluate(t *testing.T) {
	m := model{Bench: "MS2", Comps: 18, Alpha: 2, Epsilon: 1e-2, MVOrder: "w", BitOrder: "ml"}
	sys, err := benchmarks.ByName(m.Bench)
	if err != nil {
		t.Fatal(err)
	}
	dist := canonicalDist(m)
	res, err := yield.Evaluate(sys, yield.Options{Defects: dist, Epsilon: m.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	p, err := replayBuild(nil, nil, sys, m, dist)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplay(m.name(), p, res.Yield, res.M, res.CodedROBDDSize, res.ROMDDSize); err != nil {
		t.Error(err)
	}
	if p.BDD.NodesCreated == 0 || p.Conv.SimSteps == 0 || p.CompilePeak == 0 {
		t.Errorf("replay recorded no engine work: %+v", p)
	}
	wrong := *p
	wrong.ROMDDSize++
	if checkReplay(m.name(), &wrong, res.Yield, res.M, res.CodedROBDDSize, res.ROMDDSize) == nil {
		t.Error("checkReplay accepted a different ROMDD size")
	}
}

// TestModelTables checks the model tables against the benchmark
// systems: component counts, P_L, and that every λ the generators draw
// keeps the canonical truncation point, so one model key serves all
// requests for a model.
func TestModelTables(t *testing.T) {
	for wl, models := range allModels() {
		for _, m := range models {
			sys, err := benchmarks.ByName(m.Bench)
			if err != nil {
				t.Fatal(err)
			}
			if len(sys.Components) != m.Comps {
				t.Errorf("%s %s: %d components, table says %d", wl, m.name(), len(sys.Components), m.Comps)
			}
			if math.Abs(sys.PL()-lethalSum) > 1e-12 {
				t.Errorf("%s %s: P_L = %v, generated lethalities sum to %v", wl, m.name(), sys.PL(), lethalSum)
			}
			if _, _, err := orderings(m); err != nil {
				t.Errorf("%s %s: %v", wl, m.name(), err)
			}
			truncation := func(lambda, pl float64) int {
				d, err := defects.NewNegativeBinomial(lambda, m.Alpha)
				if err != nil {
					t.Fatal(err)
				}
				lethal, err := defects.Thin(d, pl)
				if err != nil {
					t.Fatal(err)
				}
				mt, _, err := defects.TruncationPoint(lethal, m.Epsilon)
				if err != nil {
					t.Fatal(err)
				}
				return mt
			}
			want := truncation(canonicalLambda, sys.PL())
			for _, l := range []float64{lambdaLo, lambdaHi} {
				if got := truncation(l, lethalSum); got != want {
					t.Errorf("%s %s: M = %d at λ = %v, %d at the canonical λ", wl, m.name(), got, l, want)
				}
			}
		}
	}
}

// TestPinsSmallModels recomputes the pinned yields of the models that
// build in well under a second.
func TestPinsSmallModels(t *testing.T) {
	for _, m := range append(append([]model(nil), missModels...), hitModels[0]) {
		sys, err := benchmarks.ByName(m.Bench)
		if err != nil {
			t.Fatal(err)
		}
		mv, bk, err := orderings(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := yield.Evaluate(sys, yield.Options{Defects: canonicalDist(m), Epsilon: m.Epsilon, MVOrder: mv, BitOrder: bk})
		if err != nil {
			t.Fatal(err)
		}
		if !within(res.Yield, m.Pin) {
			t.Errorf("%s: yield %v, pinned %v", m.name(), res.Yield, m.Pin)
		}
	}
}

// TestMetricTablesMatchManifest keeps the metric tables equal to the
// ones BENCHMARK.json declares.
func TestMetricTablesMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end metrics differ:\nmanifest %v\ncode     %v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer metrics differ:\nmanifest %v\ncode     %v", manifest.PerLayer, perLayer)
	}
	for _, w := range manifest.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %q has no implementation", w.Name)
		}
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, code has %d", len(manifest.Workloads), len(workloads))
	}
}

// TestPassSendsEveryRequestOnce drives a pass against a stub handler
// from the concurrent clients, with spans on, as the race detector
// run of this package needs.
func TestPassSendsEveryRequestOnce(t *testing.T) {
	tr := newTraffic(5, hitModels, hitMix)
	tr.order = func(k int) []int { return shuffled(5, k, tr.reqs) }
	var mu sync.Mutex
	seen := map[string]int{}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		seen[string(body)]++
		mu.Unlock()
		w.Write(body)
	})
	root := obs.NewRegistry().Span("pass")
	out, wall := tr.pass(h, 0, root)
	root.End()
	if wall <= 0 {
		t.Errorf("pass took %v", wall)
	}
	for i, o := range out {
		if o.code != http.StatusOK || string(o.body) != string(tr.bodies[i]) {
			t.Fatalf("request %d: status %d, body %q", i, o.code, o.body)
		}
	}
	sent := 0
	for _, n := range seen {
		sent += n
	}
	if sent != len(tr.reqs) {
		t.Errorf("handler saw %d requests, want %d", sent, len(tr.reqs))
	}
}
