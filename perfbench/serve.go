package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/obs"
	"socyield/internal/server"
	"socyield/internal/store"
	"socyield/internal/yield"
)

const (
	// minRequests keeps a serve run going until at least ten requests
	// lie beyond its 99th percentile.
	minRequests = 1000
	// hitSetupReps is how many times serve-hit builds its warm server;
	// setup_s is the median. Each set-up compiles ESEN8x2 and MS4 on
	// the default engine, 13 s or more, so two keep a run short.
	hitSetupReps = 2
	// missMinPasses is the least number of passes a serve-miss run
	// makes. Its 99th percentile lies among the builds, only twelve
	// per pass, so it takes many passes to be a steady estimate.
	missMinPasses = 12
)

// outcome is one request's response and latency.
type outcome struct {
	code int
	body []byte
	lat  time.Duration
}

// traffic is a workload's generated request set with its encoded
// bodies, the library's expected answers, and the order in which pass
// k sends the requests.
type traffic struct {
	models []model
	reqs   []request
	bodies [][]byte
	want   []expect
	order  func(k int) []int
}

// expect is the library's answer to one request.
type expect struct {
	yield, bound float64
	sweep        []yield.SweepResult
}

func newTraffic(seed int64, models []model, mix []mixEntry) *traffic {
	t := &traffic{models: models, reqs: generate(seed, models, mix)}
	for _, r := range t.reqs {
		t.bodies = append(t.bodies, r.body(models))
	}
	return t
}

// send runs one request through the handler with no network in
// between.
func send(h http.Handler, path string, body []byte) outcome {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and path
	}
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return outcome{code: rec.Code, body: rec.Body.Bytes(), lat: time.Since(t0)}
}

// pass sends every request once, in the order of pass k, from
// closed-loop clients — each sends its next request when the previous
// one has been answered — and returns the outcomes by request index
// with the wall time. When parent is non-nil each request gets a span
// under it.
func (t *traffic) pass(h http.Handler, k int, parent *obs.Span) ([]outcome, time.Duration) {
	order := t.order(k)
	out := make([]outcome, len(t.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(order) {
					return
				}
				i := order[n]
				sp := parent.Child(t.reqs[i].path())
				out[i] = send(h, t.reqs[i].path(), t.bodies[i])
				sp.End()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// sweepPoints are the library inputs of a sweep request.
func (r request) sweepPoints(m model) ([]yield.SweepPoint, error) {
	pts := make([]yield.SweepPoint, len(r.Lambdas))
	for i, l := range r.Lambdas {
		d, err := defects.NewNegativeBinomial(l, m.Alpha)
		if err != nil {
			return nil, err
		}
		pts[i] = yield.SweepPoint{PS: r.Lethalities, Dist: d}
	}
	return pts, nil
}

// answer evaluates request r on the library model ref.
func answer(ref *yield.Reevaluator, m model, r request) (expect, error) {
	if r.Sweep {
		pts, err := r.sweepPoints(m)
		if err != nil {
			return expect{}, err
		}
		return expect{sweep: ref.Sweep(pts, yield.SweepOptions{})}, nil
	}
	d, err := defects.NewNegativeBinomial(r.Lambda, m.Alpha)
	if err != nil {
		return expect{}, err
	}
	y, bound, err := ref.Yield(r.Lethalities, d)
	return expect{yield: y, bound: bound}, err
}

// within reports whether two yields agree to pinTolerance.
func within(a, b float64) bool { return math.Abs(a-b) <= pinTolerance }

// check compares a response with the expected answer.
func check(o outcome, r request, e expect) error {
	if o.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.code, bytes.TrimSpace(o.body))
	}
	if r.Sweep {
		var resp server.SweepResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return err
		}
		if len(resp.Results) != len(e.sweep) {
			return fmt.Errorf("sweep has %d points, want %d", len(resp.Results), len(e.sweep))
		}
		for i, p := range resp.Results {
			w := e.sweep[i]
			if p.Error != "" || w.Err != nil || !within(p.Yield, w.Yield) || !within(p.ErrorBound, w.ErrorBound) {
				return fmt.Errorf("sweep point %d: got %v±%v (%q), library %v±%v (%v)", i, p.Yield, p.ErrorBound, p.Error, w.Yield, w.ErrorBound, w.Err)
			}
		}
		return nil
	}
	var resp server.EvaluateResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return err
	}
	if !within(resp.Yield, e.yield) || !within(resp.ErrorBound, e.bound) {
		return fmt.Errorf("yield %v±%v, library %v±%v", resp.Yield, resp.ErrorBound, e.yield, e.bound)
	}
	return nil
}

// score counts a pass's outcomes against the expected answers.
func (b *bench) score(t *traffic, out []outcome) {
	for i, o := range out {
		b.attempted++
		if err := check(o, t.reqs[i], t.want[i]); err != nil {
			b.failed++
			b.problem("request %d (%s): %v", i, t.models[t.reqs[i].Model].name(), err)
		}
	}
}

// loadModel reads one compiled model back from a store with library
// calls: Get, Decode, RestoreReevaluator.
func loadModel(st *store.Store, key string) (*yield.Snapshot, *yield.Reevaluator, error) {
	data, err := st.Get(key)
	if err != nil {
		return nil, nil, err
	}
	snap, err := store.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	ref, err := yield.RestoreReevaluator(snap)
	return snap, ref, err
}

// canonicalYield evaluates ref at the canonical inputs of m.
func canonicalYield(ref *yield.Reevaluator, m model) (float64, error) {
	sys, err := benchmarks.ByName(m.Bench)
	if err != nil {
		return 0, err
	}
	ps := make([]float64, len(sys.Components))
	for i, c := range sys.Components {
		ps[i] = c.P
	}
	y, _, err := ref.Yield(ps, canonicalDist(m))
	return y, err
}

// references restores the library model of every workload model from
// the server's store, checks it against its pinned yield, and computes
// the expected answer of every request.
func (b *bench) references(t *traffic, st *store.Store, keys []string) ([]*yield.Snapshot, []*yield.Reevaluator, error) {
	snaps := make([]*yield.Snapshot, len(t.models))
	refs := make([]*yield.Reevaluator, len(t.models))
	for i, m := range t.models {
		snap, ref, err := loadModel(st, keys[i])
		if err != nil {
			return nil, nil, fmt.Errorf("%s: loading the stored model: %w", m.name(), err)
		}
		y, err := canonicalYield(ref, m)
		if err != nil {
			return nil, nil, err
		}
		if !within(y, m.Pin) {
			b.problem("%s: yield %v at canonical inputs, pinned %v", m.name(), y, m.Pin)
		}
		snaps[i], refs[i] = snap, ref
	}
	t.want = make([]expect, len(t.reqs))
	for i, r := range t.reqs {
		e, err := answer(refs[r.Model], t.models[r.Model], r)
		if err != nil {
			return nil, nil, fmt.Errorf("request %d: library evaluation: %w", i, err)
		}
		t.want[i] = e
	}
	return snaps, refs, nil
}

// newServer opens an empty store in dir and a server on it with the
// given cache capacity (0 = the server's default).
func newServer(dir string, cacheEntries int) (*server.Server, *store.Store, error) {
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	return server.New(server.Config{Store: st, CacheEntries: cacheEntries}), st, nil
}

// runServeHit is the serve-hit workload: a server whose three models
// are compiled during set-up answers a seeded stream of evaluate and
// sweep requests from two closed-loop clients, every one a cache hit.
func (b *bench) runServeHit() error {
	t := newTraffic(b.seed, hitModels, hitMix)
	t.order = func(k int) []int { return shuffled(b.seed, k, t.reqs) }
	var srv *server.Server
	var st *store.Store
	var keys []string
	var setups []time.Duration
	for rep := range hitSetupReps {
		// Only the last set-up is kept: drop the previous one first so
		// that its memory does not add to this one's peak.
		srv, st, keys = nil, nil, nil
		if rep > 0 {
			os.RemoveAll(filepath.Join(b.work, fmt.Sprintf("hit-store-%d", rep-1)))
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		srv, st, err = newServer(filepath.Join(b.work, fmt.Sprintf("hit-store-%d", rep)), 0)
		if err != nil {
			return err
		}
		h := srv.Handler()
		keys = make([]string, len(t.models))
		for i, m := range t.models {
			// The warm-up request carries the canonical inputs, so its
			// answer is the pinned yield.
			warm := request{Model: i, Lambda: canonicalLambda}
			o := send(h, warm.path(), warm.body(t.models))
			var resp server.EvaluateResponse
			if o.code != http.StatusOK {
				return fmt.Errorf("warming %s: status %d: %s", m.name(), o.code, bytes.TrimSpace(o.body))
			}
			if err := json.Unmarshal(o.body, &resp); err != nil {
				return fmt.Errorf("warming %s: %w", m.name(), err)
			}
			if !within(resp.Yield, m.Pin) {
				b.problem("%s: warm-up yield %v, pinned %v", m.name(), resp.Yield, m.Pin)
			}
			keys[i] = resp.ModelKey
		}
		setups = append(setups, time.Since(t0))
	}
	b.setSetup(setups)
	snaps, refs, err := b.references(t, st, keys)
	if err != nil {
		return err
	}

	h := srv.Handler()
	var walls, lat []time.Duration
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < b.seconds || len(lat) < minRequests {
		out, wall := t.pass(h, len(walls), nil)
		walls = append(walls, wall)
		for _, o := range out {
			lat = append(lat, o.lat)
		}
		b.score(t, out)
	}
	b.setWall(walls, len(lat))
	b.setLatencies(lat)
	snap := srv.Metrics().Snapshot()
	if got := snap.Counters["cache.misses"]; got != int64(len(t.models)) {
		b.problem("serve-hit: %d model-cache misses, want only the %d warm-ups", got, len(t.models))
	}
	if !b.traced {
		return nil
	}
	b.serverLayers([]obs.Snapshot{snap})
	return b.traceServe(t, h, snaps, refs)
}

// runServeMiss is the serve-miss workload: every pass starts a server
// on an empty store with a model cache a third the size of the
// working set, and two closed-loop clients send a seeded stream over
// twelve models. Each model is compiled on its first request and
// written through to the store; later requests hit the cache or
// reload the model from the store.
func (b *bench) runServeMiss() error {
	t := newTraffic(b.seed, missModels, missMix)
	t.order = func(k int) []int { return cyclic(b.seed, k, t.reqs, len(t.models)) }
	seq := 0
	fresh := func() (*server.Server, *store.Store, string, time.Duration, error) {
		dir := filepath.Join(b.work, fmt.Sprintf("miss-store-%d", seq))
		seq++
		debug.FreeOSMemory()
		t0 := time.Now()
		srv, st, err := newServer(dir, missCacheEntries)
		return srv, st, dir, time.Since(t0), err
	}

	var snaps []*yield.Snapshot
	var refs []*yield.Reevaluator
	var setups, walls, lat []time.Duration
	var regs []obs.Snapshot
	start := time.Now()
	for len(walls) < missMinPasses || time.Since(start) < b.seconds || len(lat) < minRequests {
		srv, st, dir, setup, err := fresh()
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		out, wall := t.pass(srv.Handler(), len(walls), nil)
		walls = append(walls, wall)
		for _, o := range out {
			lat = append(lat, o.lat)
		}
		if t.want == nil {
			keys, err := modelKeys(t, out)
			if err != nil {
				return err
			}
			if snaps, refs, err = b.references(t, st, keys); err != nil {
				return err
			}
		}
		b.score(t, out)
		regs = append(regs, srv.Metrics().Snapshot())
		os.RemoveAll(dir)
	}
	b.setSetup(setups)
	b.setWall(walls, len(lat))
	b.setLatencies(lat)
	if !b.traced {
		return nil
	}
	b.serverLayers(regs)
	srv, _, _, _, err := fresh()
	if err != nil {
		return err
	}
	return b.traceServe(t, srv.Handler(), snaps, refs)
}

// modelKeys returns the model key the server reported for each model
// of t, from a pass's successful responses.
func modelKeys(t *traffic, out []outcome) ([]string, error) {
	keys := make([]string, len(t.models))
	for i, o := range out {
		if o.code != http.StatusOK {
			continue
		}
		var resp struct {
			ModelKey string `json:"model_key"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return nil, err
		}
		m := t.reqs[i].Model
		if keys[m] != "" && keys[m] != resp.ModelKey {
			return nil, fmt.Errorf("%s: requests report two model keys", t.models[m].name())
		}
		keys[m] = resp.ModelKey
	}
	for i, k := range keys {
		if k == "" {
			return nil, fmt.Errorf("%s: no request succeeded", t.models[i].name())
		}
	}
	return keys, nil
}

// serverLayers reads the server-side per-layer metrics from the
// registries of the untraced run's servers: cache behaviour, and the
// default-engine view of the builds the servers ran.
func (b *bench) serverLayers(regs []obs.Snapshot) {
	var hits, misses, coalesced, slots, compiles, iteMisses, created, peak int64
	var compileS, convertS, evalS float64
	for _, s := range regs {
		hits += s.Counters["cache.hits"]
		misses += s.Counters["cache.misses"]
		coalesced += s.Counters["cache.coalesced"]
		slots += s.Counters["cache.builds"]
		compiles += s.Counters["build.compiles"]
		iteMisses += s.Counters["bdd.apply_cache_misses"]
		created += s.Counters["bdd.nodes_created"]
		peak = max(peak, s.Gauges["bdd.peak_live"])
		for _, sp := range s.Spans {
			if sp.Name != "reevaluator-build" {
				continue
			}
			for _, c := range sp.Children {
				switch c.Name {
				case "compile":
					compileS += c.Seconds
				case "convert":
					convertS += c.Seconds
				case "eval":
					evalS += c.Seconds
				}
			}
		}
	}
	b.layer["server.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	b.layer["server.store_hit_ratio"] = ratio(float64(slots-compiles), float64(slots))
	b.layer["server.builds"] = float64(compiles)
	b.layer["server.coalesced"] = float64(coalesced)
	b.layer["phase.compile_ms"] = compileS * 1e3
	b.layer["phase.convert_ms"] = convertS * 1e3
	b.layer["phase.eval_ms"] = evalS * 1e3
	b.layer["engine.ite_miss_per_node"] = ratio(float64(iteMisses), float64(created))
	b.layer["engine.peak_live"] = float64(peak)
}

// traceServe is the traced part of a serve workload:
//
//   - a traced pass, two clients as in the untraced passes, with a
//     span per request; its wall time minus the untraced median is
//     trace.overhead_s;
//   - a sequential replay of the pass in which every request is
//     followed by the library calls the server makes for it
//     (benchmarks.ByName, the defect-model preparation, ModelKey,
//     Reevaluator.Yield or Sweep), each under its own span; the
//     request's latency minus those calls is server.overhead_us;
//   - the store and probability-pass layers on the workload's models;
//   - a layer-by-layer replay of every model's build.
//
// h is the server the traced pass and the replay use.
func (b *bench) traceServe(t *traffic, h http.Handler, snaps []*yield.Snapshot, refs []*yield.Reevaluator) error {
	root := b.reg.Span("traced-pass")
	out, wall := t.pass(h, -1, root)
	root.End()
	b.score(t, out)
	b.layer["trace.overhead_s"] = wall.Seconds() - b.e2e["wall_s"]

	if err := b.replayRequests(t, h, refs); err != nil {
		return err
	}
	if err := b.storeLayers(t.models, snaps); err != nil {
		return err
	}

	var probD time.Duration
	nodes := 0
	var ps []*pipeline
	replays := map[string]any{}
	for i, m := range t.models {
		sys, err := benchmarks.ByName(m.Bench)
		if err != nil {
			return err
		}
		sp := b.reg.Span("probability pass " + m.name())
		qprime, tail, err := canonicalQ(sys, m, snaps[i].M)
		if err != nil {
			return err
		}
		_, d, err := timeProb(snaps[i].Frozen, probTable(snaps[i].GroupSeq, snaps[i].M, sys, qprime, tail))
		sp.End()
		if err != nil {
			return err
		}
		probD += d
		nodes += snaps[i].Frozen.Size()

		sp = b.reg.Span("build " + m.name())
		p, err := replayBuild(sp, b.tracer, sys, m, canonicalDist(m))
		sp.End()
		if err != nil {
			b.problem("%s: layer replay: %v", m.name(), err)
			continue
		}
		if err := checkReplay(m.name(), p, m.Pin, snaps[i].M, snaps[i].Build.CodedROBDDSize, snaps[i].Build.ROMDDSize); err != nil {
			b.problem("%v", err)
		}
		ps = append(ps, p)
		replays[m.name()] = pipelineRecord(p)
	}
	b.record["replay"] = replays
	b.layer["mdd.prob_ns_per_node"] = ratio(float64(probD), float64(nodes))
	buildLayers(b.layer, ps)
	return nil
}

// canonicalQ is the truncated lethal-defect table of m's canonical
// inputs at truncation point mTrunc.
func canonicalQ(sys *yield.System, m model, mTrunc int) ([]float64, float64, error) {
	lethal, err := defects.Thin(canonicalDist(m), sys.PL())
	if err != nil {
		return nil, 0, err
	}
	return defects.PMFTable(lethal, mTrunc)
}

// replayRequests sends every request of one pass (in the traced pass's
// order) in turn and times,
// after each, the library calls the server makes for it.
func (b *bench) replayRequests(t *traffic, h http.Handler, refs []*yield.Reevaluator) error {
	var reqD, nameD, prepD, keyD, yieldD, overD []time.Duration
	root := b.reg.Span("request-replay")
	defer root.End()
	timed := func(parent *obs.Span, name string, into *[]time.Duration, f func() error) (time.Duration, error) {
		sp := parent.Child(name)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		sp.End()
		*into = append(*into, d)
		return d, err
	}
	for _, i := range t.order(-1) {
		r := t.reqs[i]
		m := t.models[r.Model]
		sp := root.Child("request " + m.name())
		var o outcome
		dReq, _ := timed(sp, "server.ServeHTTP "+r.path(), &reqD, func() error {
			o = send(h, r.path(), t.bodies[i])
			return nil
		})
		b.attempted++
		if err := check(o, r, t.want[i]); err != nil {
			b.failed++
			b.problem("replayed request %d (%s): %v", i, m.name(), err)
		}

		var sys *yield.System
		dName, err := timed(sp, "benchmarks.ByName", &nameD, func() (err error) {
			sys, err = benchmarks.ByName(m.Bench)
			return err
		})
		if err != nil {
			return err
		}
		for j, p := range r.Lethalities {
			sys.Components[j].P = p
		}
		lambda := r.Lambda
		if r.Sweep {
			lambda = r.Lambdas[0]
		}
		dist, err := defects.NewNegativeBinomial(lambda, m.Alpha)
		if err != nil {
			return err
		}
		if _, err := timed(sp, "defects.prepare", &prepD, func() error {
			lethal, err := defects.Thin(dist, sys.PL())
			if err != nil {
				return err
			}
			mt, _, err := defects.TruncationPoint(lethal, m.Epsilon)
			if err != nil {
				return err
			}
			_, _, err = defects.PMFTable(lethal, mt)
			return err
		}); err != nil {
			return err
		}
		mv, bk, err := orderings(m)
		if err != nil {
			return err
		}
		dKey, err := timed(sp, "yield.ModelKey", &keyD, func() error {
			_, _, err := yield.ModelKey(sys, yield.Options{Defects: dist, Epsilon: m.Epsilon, MVOrder: mv, BitOrder: bk})
			return err
		})
		if err != nil {
			return err
		}
		dYield, err := timed(sp, "yield.Reevaluator", &yieldD, func() error {
			_, err := answer(refs[r.Model], m, r)
			return err
		})
		if err != nil {
			return err
		}
		sp.End()
		overD = append(overD, dReq-dName-dKey-dYield)
	}
	b.layer["benchmarks.by_name_us"] = medianDur(nameD, time.Microsecond)
	b.layer["defects.prepare_us"] = medianDur(prepD, time.Microsecond)
	b.layer["yield.model_key_us"] = medianDur(keyD, time.Microsecond)
	b.layer["yield.reeval_yield_us"] = medianDur(yieldD, time.Microsecond)
	b.layer["server.overhead_us"] = medianDur(overD, time.Microsecond)
	b.record["replay_request_us"] = medianDur(reqD, time.Microsecond)
	return nil
}

// storeReps is how many times each store call is timed; the median
// counts.
const storeReps = 3

// storeLayers times the model store's calls on every workload model:
// Encode and Put into a scratch store, then Get, Decode and
// RestoreReevaluator. Times add up over the models.
func (b *bench) storeLayers(models []model, snaps []*yield.Snapshot) error {
	st, err := store.Open(filepath.Join(b.work, "layer-store"), 0, nil)
	if err != nil {
		return err
	}
	root := b.reg.Span("store")
	defer root.End()
	var sums [5]time.Duration
	var bytesTotal, nodes int
	for i, snap := range snaps {
		key := fmt.Sprintf("layer%02d", i)
		var ds [5][]time.Duration
		var data []byte
		for range storeReps {
			steps := []struct {
				name string
				f    func() error
			}{
				{"store.Encode", func() (err error) { data, err = store.Encode(snap); return err }},
				{"store.Put", func() error { return st.Put(key, data) }},
				{"store.Get", func() (err error) { data, err = st.Get(key); return err }},
				{"store.Decode", func() (err error) { snap, err = store.Decode(data); return err }},
				{"store.Restore", func() error { _, err := yield.RestoreReevaluator(snap); return err }},
			}
			for j, s := range steps {
				sp := root.Child(s.name + " " + models[i].name())
				t0 := time.Now()
				err := s.f()
				ds[j] = append(ds[j], time.Since(t0))
				sp.End()
				if err != nil {
					return fmt.Errorf("%s %s: %w", s.name, models[i].name(), err)
				}
			}
		}
		for j := range sums {
			sums[j] += time.Duration(medianDur(ds[j], 1))
		}
		bytesTotal += len(data)
		nodes += snap.Frozen.Size()
	}
	b.layer["store.encode_ms"] = ms(sums[0])
	b.layer["store.put_ms"] = ms(sums[1])
	b.layer["store.get_ms"] = ms(sums[2])
	b.layer["store.decode_ms"] = ms(sums[3])
	b.layer["store.restore_ms"] = ms(sums[4])
	b.layer["store.bytes_per_romdd_node"] = ratio(float64(bytesTotal), float64(nodes))
	return nil
}
