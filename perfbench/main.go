// Command perfbench is socyield's benchmark. It runs one workload
// against the program's default configuration, checks every output and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	perfbench -workload build|serve-hit|serve-miss -seed N -seconds S -trace 0|1
//
// run.sh builds it from the checkout and runs it; NOTES.md explains the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"socyield/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is the state of one benchmark run.
type bench struct {
	root    string
	seed    int64
	seconds time.Duration
	traced  bool
	work    string // per-run scratch directory, removed at exit

	// reg holds the trace spans and tracer the work events of a traced
	// run; both are nil when tracing is off.
	reg    *obs.Registry
	tracer *obs.Tracer

	attempted, failed int
	problems          []string

	e2e    map[string]float64
	layer  map[string]float64
	record map[string]any
}

// problem records a correctness failure; any makes the run incorrect.
func (b *bench) problem(format string, args ...any) {
	const keep = 20
	if len(b.problems) < keep {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*bench) error{
	"build":      (*bench).runBuild,
	"serve-hit":  (*bench).runServeHit,
	"serve-miss": (*bench).runServeMiss,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: build, serve-hit or serve-miss")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *trace < 0 || *trace > 1 || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: want -workload build|serve-hit|serve-miss, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	b := &bench{
		root:    *root,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		record:  map[string]any{},
	}
	if err := b.runWorkload(*workload, fn); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := b.print(stdout, *workload); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload runs fn inside a fresh scratch directory and, when
// traced, writes the trace out afterwards.
func (b *bench) runWorkload(name string, fn func(*bench) error) error {
	b.work = filepath.Join(b.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	for _, m := range perLayer {
		b.layer[m.Name] = 0
	}
	if b.traced {
		b.reg = obs.NewRegistry()
		b.tracer = obs.NewTracer(0)
	}
	cpu := cpuTimes()
	if err := fn(b); err != nil {
		return err
	}
	b.record["steal_frac"] = stealFrac(cpu, cpuTimes())
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.e2e["peak_rss_mb"] = rss
	if b.traced {
		return b.writeTrace(name)
	}
	return nil
}

// writeTrace stores the run's spans and work events as a Chrome trace
// (Perfetto-loadable) under .bench_build/traces.
func (b *bench) writeTrace(name string) error {
	dir := filepath.Join(b.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteChromeTrace(f, b.reg.Snapshot(), nil, b.tracer.Events())
	if err := errors.Join(werr, f.Close()); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	b.record["trace_file"] = path
	b.record["trace_events_dropped"] = b.tracer.Dropped()
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the full record (provenance, every metric, per-model
// details, problems) as one JSON line, then the result line.
func (b *bench) print(w io.Writer, workload string) error {
	defs, values := endToEnd, b.e2e
	if b.traced {
		defs, values = perLayer, b.layer
	}
	res := result{
		Correct:   len(b.problems) == 0 && b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rec := map[string]any{
		"workload":   workload,
		"traced":     b.traced,
		"provenance": provenance(b.seed),
		"end_to_end": b.e2e,
		"details":    b.record,
		"problems":   b.problems,
	}
	if b.traced {
		rec["per_layer"] = b.layer
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// setLatencies fills the latency metrics from per-operation samples and
// records which percentiles the sample count supports.
func (b *bench) setLatencies(lat []time.Duration) {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(xs)
	b.e2e["latency_p50_ms"] = percentile(xs, 50)
	b.e2e["latency_p99_ms"] = percentile(xs, 99)
	q := tailPercentile(len(xs))
	b.record["latency_samples"] = len(xs)
	b.record["latency_p99_has_10_beyond"] = beyond(len(xs), 99) >= 10
	b.record["latency_tail_percentile"] = q
	if q > 0 {
		b.record["latency_tail_ms"] = percentile(xs, q)
	}
}

// setSetup fills setup_s, the median of the set-up samples.
func (b *bench) setSetup(setups []time.Duration) {
	b.e2e["setup_s"] = medianDur(setups, time.Second)
	xs := make([]float64, len(setups))
	for i, d := range setups {
		xs[i] = d.Seconds()
	}
	b.record["setup_samples_s"] = xs
}

// setWall fills wall_s (median pass time) and throughput_rps
// (operations per second of pass time).
func (b *bench) setWall(passes []time.Duration, ops int) {
	var total time.Duration
	for _, p := range passes {
		total += p
	}
	b.e2e["wall_s"] = medianDur(passes, time.Second)
	b.e2e["throughput_rps"] = float64(ops) / total.Seconds()
	pass := make([]float64, len(passes))
	for i, p := range passes {
		pass[i] = p.Seconds()
	}
	b.record["pass_s"] = pass
}
