package main

import (
	"time"
)

// metricDef names one reported metric and its unit. The tables below
// are the benchmark's metric contract; TestMetricTablesMatchManifest
// keeps them equal to BENCHMARK.json.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of socyield sees; printed without tracing.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is measured from outside each layer in the traced run. A
// layer a workload never calls reports 0.
var perLayer = []metricDef{
	{"benchmarks.by_name_us", "us"},
	{"defects.prepare_us", "us"},
	{"yield.model_key_us", "us"},
	{"yield.reeval_yield_us", "us"},
	{"server.overhead_us", "us"},
	{"mdd.prob_ns_per_node", "ns"},
	{"mdd.freeze_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.encode_ms", "ms"},
	{"store.decode_ms", "ms"},
	{"store.restore_ms", "ms"},
	{"store.bytes_per_romdd_node", "B"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.store_hit_ratio", "ratio"},
	{"server.builds", "count"},
	{"server.coalesced", "count"},
	{"encode.build_g_ms", "ms"},
	{"order.assemble_ms", "ms"},
	{"compile.ms", "ms"},
	{"compile.nodes_created", "count"},
	{"compile.ite_misses", "count"},
	{"compile.ite_miss_per_node", "ratio"},
	{"compile.ite_hit_rate", "ratio"},
	{"compile.ns_per_node", "ns"},
	{"compile.peak_live", "count"},
	{"compile.gc_runs", "count"},
	{"convert.ms", "ms"},
	{"convert.entry_nodes", "count"},
	{"convert.sim_steps", "count"},
	{"convert.ns_per_entry", "ns"},
	{"convert.peak_live", "count"},
	{"bdd.bytes_per_peak_live", "B"},
	{"phase.compile_ms", "ms"},
	{"phase.convert_ms", "ms"},
	{"phase.eval_ms", "ms"},
	{"engine.ite_miss_per_node", "ratio"},
	{"engine.peak_live", "count"},
	{"trace.overhead_s", "s"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// buildLayers folds layer replays into the build-side per-layer
// metrics: times and counts add up over the replayed models, peaks
// take the maximum, ratios divide the sums.
func buildLayers(out map[string]float64, ps []*pipeline) {
	var encodeD, orderD, compileD, convertD, freezeD time.Duration
	var created, hits, misses, gcs, entries, steps int64
	var compilePeak, convertPeak int
	var heap uint64
	for _, p := range ps {
		encodeD += p.Encode
		orderD += p.Order
		compileD += p.Compile
		convertD += p.Convert
		freezeD += p.Freeze
		created += p.BDD.NodesCreated
		hits += p.BDD.ApplyCacheHits
		misses += p.BDD.ApplyCacheMisses
		gcs += int64(p.BDD.GCs)
		for _, n := range p.Conv.EntryNodes {
			entries += n
		}
		steps += p.Conv.SimSteps
		compilePeak = max(compilePeak, p.CompilePeak)
		convertPeak = max(convertPeak, p.ConvertPeak)
		heap = max(heap, p.HeapBytes)
	}
	out["encode.build_g_ms"] = ms(encodeD)
	out["order.assemble_ms"] = ms(orderD)
	out["compile.ms"] = ms(compileD)
	out["compile.nodes_created"] = float64(created)
	out["compile.ite_misses"] = float64(misses)
	out["compile.ite_miss_per_node"] = ratio(float64(misses), float64(created))
	out["compile.ite_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	out["compile.ns_per_node"] = ratio(float64(compileD), float64(created))
	out["compile.peak_live"] = float64(compilePeak)
	out["compile.gc_runs"] = float64(gcs)
	out["convert.ms"] = ms(convertD)
	out["convert.entry_nodes"] = float64(entries)
	out["convert.sim_steps"] = float64(steps)
	out["convert.ns_per_entry"] = ratio(float64(convertD), float64(entries))
	out["convert.peak_live"] = float64(convertPeak)
	out["bdd.bytes_per_peak_live"] = ratio(float64(heap), float64(max(compilePeak, convertPeak)))
	out["mdd.freeze_ms"] = ms(freezeD)
}

// pipelineRecord is the per-model breakdown of a layer replay, for the
// result record.
func pipelineRecord(p *pipeline) map[string]any {
	var entries int64
	for _, n := range p.Conv.EntryNodes {
		entries += n
	}
	return map[string]any{
		"m":                 p.M,
		"coded_robdd_nodes": p.CodedROBDDSize,
		"romdd_nodes":       p.ROMDDSize,
		"prepare_us":        float64(p.Prepare) / 1e3,
		"encode_ms":         ms(p.Encode),
		"order_ms":          ms(p.Order),
		"compile_ms":        ms(p.Compile),
		"convert_ms":        ms(p.Convert),
		"freeze_ms":         ms(p.Freeze),
		"prob_ms":           ms(p.Prob),
		"nodes_created":     p.BDD.NodesCreated,
		"ite_misses":        p.BDD.ApplyCacheMisses,
		"ite_hits":          p.BDD.ApplyCacheHits,
		"compile_peak_live": p.CompilePeak,
		"convert_peak_live": p.ConvertPeak,
		"gc_runs":           p.BDD.GCs,
		"entry_nodes":       entries,
		"entry_nodes_layer": p.Conv.EntryNodes,
		"sim_steps":         p.Conv.SimSteps,
		"heap_bytes":        p.HeapBytes,
	}
}
