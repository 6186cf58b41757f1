package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/yield"
)

const (
	// buildSetupReps is how many times the build workload repeats its
	// set-up; setup_s is the median.
	buildSetupReps = 21
	// buildMinPasses is the least number of passes a build run makes,
	// however short its time, so that wall_s is never a single sample.
	buildMinPasses = 2
)

// runBuild is the build workload: one-shot yield.Evaluate calls, as the
// yieldsoc CLI makes them, on every model of buildModels in turn. A
// pass is one evaluation of each; passes repeat until the run's time
// is used, at least buildMinPasses times.
func (b *bench) runBuild() error {
	var systems []*yield.System
	var dists []defects.Distribution
	var setups, byName []time.Duration
	for range buildSetupReps {
		// A collection first lets each set-up reuse the pages of the
		// last one, so the samples time the work, not page faults.
		runtime.GC()
		t0 := time.Now()
		systems, dists = systems[:0], dists[:0]
		for _, m := range buildModels {
			t1 := time.Now()
			sys, err := benchmarks.ByName(m.Bench)
			if err != nil {
				return err
			}
			byName = append(byName, time.Since(t1))
			systems = append(systems, sys)
			dists = append(dists, canonicalDist(m))
		}
		setups = append(setups, time.Since(t0))
	}
	b.setSetup(setups)

	results := make([]*yield.Result, len(buildModels))
	var passes, lat []time.Duration
	start := time.Now()
	for len(passes) < buildMinPasses || time.Since(start) < b.seconds {
		debug.FreeOSMemory()
		t0 := time.Now()
		for i, m := range buildModels {
			t1 := time.Now()
			res := b.evaluate(systems[i], m, yield.Options{Defects: dists[i], Epsilon: m.Epsilon})
			lat = append(lat, time.Since(t1))
			if res != nil {
				results[i] = res
			}
		}
		passes = append(passes, time.Since(t0))
	}
	b.setWall(passes, b.attempted)
	b.setLatencies(lat)

	models := map[string]any{}
	for i, res := range results {
		if res == nil {
			continue
		}
		models[buildModels[i].name()] = map[string]any{
			"yield":           res.Yield,
			"m":               res.M,
			"coded_robdd":     res.CodedROBDDSize,
			"romdd":           res.ROMDDSize,
			"robdd_peak":      res.ROBDDPeak,
			"compile_ms":      ms(res.Phases.Compile),
			"convert_ms":      ms(res.Phases.Convert),
			"eval_ms":         ms(res.Phases.Eval),
			"ite_misses":      res.Stats.BDD.ApplyCacheMisses,
			"nodes_created":   res.Stats.BDD.NodesCreated,
			"ite_miss_per_nd": ratio(float64(res.Stats.BDD.ApplyCacheMisses), float64(res.Stats.BDD.NodesCreated)),
		}
	}
	b.record["evaluate"] = models
	if !b.traced {
		return nil
	}

	// Default-engine view, from the last untraced evaluation.
	var compileD, convertD, evalD time.Duration
	var misses, created float64
	peak := 0
	for _, res := range results {
		if res == nil {
			continue
		}
		compileD += res.Phases.Compile
		convertD += res.Phases.Convert
		evalD += res.Phases.Eval
		misses += float64(res.Stats.BDD.ApplyCacheMisses)
		created += float64(res.Stats.BDD.NodesCreated)
		peak = max(peak, res.ROBDDPeak)
	}
	b.layer["phase.compile_ms"] = ms(compileD)
	b.layer["phase.convert_ms"] = ms(convertD)
	b.layer["phase.eval_ms"] = ms(evalD)
	b.layer["engine.ite_miss_per_node"] = ratio(misses, created)
	b.layer["engine.peak_live"] = float64(peak)
	b.layer["benchmarks.by_name_us"] = medianDur(byName, time.Microsecond)

	// The traced passes: the same evaluations with only the library's
	// span recording and work tracing turned on. Their median time minus
	// the untraced median is the tracing overhead.
	var tracedPasses []time.Duration
	for range buildMinPasses {
		debug.FreeOSMemory()
		t0 := time.Now()
		for i, m := range buildModels {
			b.evaluate(systems[i], m, yield.Options{Defects: dists[i], Epsilon: m.Epsilon, Recorder: b.reg, Tracer: b.tracer})
		}
		tracedPasses = append(tracedPasses, time.Since(t0))
	}
	b.layer["trace.overhead_s"] = medianDur(tracedPasses, time.Second) - b.e2e["wall_s"]

	// The layer replay: the same builds, one layer call at a time.
	root := b.reg.Span("layer-replay")
	var ps []*pipeline
	replays := map[string]any{}
	for i, m := range buildModels {
		sp := root.Child("build " + m.name())
		p, err := replayBuild(sp, nil, systems[i], m, dists[i])
		sp.End()
		if err != nil {
			b.problem("%s: layer replay: %v", m.name(), err)
			continue
		}
		if res := results[i]; res != nil {
			if err := checkReplay(m.name(), p, res.Yield, res.M, res.CodedROBDDSize, res.ROMDDSize); err != nil {
				b.problem("%v", err)
			}
		}
		ps = append(ps, p)
		replays[m.name()] = pipelineRecord(p)
	}
	root.End()
	b.record["replay"] = replays
	buildLayers(b.layer, ps)
	var prep []time.Duration
	var probD time.Duration
	nodes := 0
	for _, p := range ps {
		prep = append(prep, p.Prepare)
		probD += p.Prob
		nodes += p.ROMDDSize
	}
	b.layer["defects.prepare_us"] = medianDur(prep, time.Microsecond)
	b.layer["mdd.prob_ns_per_node"] = ratio(float64(probD), float64(nodes))
	return nil
}

// evaluate is one build-workload operation: a yield.Evaluate call whose
// yield must match m's pin. It returns nil when the call failed.
func (b *bench) evaluate(sys *yield.System, m model, opts yield.Options) *yield.Result {
	b.attempted++
	res, err := yield.Evaluate(sys, opts)
	switch {
	case err != nil:
		b.failed++
		b.problem("%s: %v", m.name(), err)
	case math.Abs(res.Yield-m.Pin) > pinTolerance:
		b.failed++
		b.problem("%s: yield %v, pinned %v", m.name(), res.Yield, m.Pin)
	default:
		return res
	}
	return nil
}
