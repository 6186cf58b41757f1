package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.SetMax(3) // lower: no effect
	if got := g.Load(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	g.SetMax(9)
	if got := g.Load(); got != 9 {
		t.Errorf("gauge after SetMax = %d, want 9", got)
	}
	f := r.FloatGauge("f")
	f.Set(0.75)
	if got := f.Load(); got != 0.75 {
		t.Errorf("float gauge = %v, want 0.75", got)
	}
}

// TestNilReceivers exercises the disabled-metrics path: every method of
// every type must be a safe no-op on nil.
func TestNilReceivers(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	if r.Counter("x").Load() != 0 {
		t.Error("nil counter loaded nonzero")
	}
	r.Gauge("x").Set(1)
	r.Gauge("x").SetMax(1)
	if r.Gauge("x").Load() != 0 {
		t.Error("nil gauge loaded nonzero")
	}
	r.FloatGauge("x").Set(1)
	if r.FloatGauge("x").Load() != 0 {
		t.Error("nil float gauge loaded nonzero")
	}
	r.Histogram("x").Observe(1)
	r.Histogram("x").ObserveSince(time.Now())
	if r.Histogram("x").Count() != 0 || r.Histogram("x").Sum() != 0 {
		t.Error("nil histogram counted")
	}
	sp := r.Span("x")
	child := sp.Child("y")
	child.End()
	if d := sp.End(); d != 0 {
		t.Errorf("nil span End = %v, want 0", d)
	}
	if sp.Duration() != 0 || sp.Name() != "" {
		t.Error("nil span reported state")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	r.Publish("never")

	var p *Progress
	p.Add(3)
	if p.Done() != 0 {
		t.Error("nil progress counted")
	}
	p.Close()
}

// TestHistogramBucketBoundaries pins the log2 bucket layout: bucket i
// holds [2^i, 2^(i+1)), bucket 0 additionally absorbs v < 1, the last
// bucket absorbs everything beyond 2^47.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 1},
		{4, 2}, {7, 2},
		{8, 3},
		{1023, 9}, {1024, 10}, {1025, 10},
		{1 << 46, 46},
		{1<<47 - 1, 46},
		{1 << 47, 47},
		{math.MaxInt64, 47},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
		lo, hi := BucketBounds(tc.bucket)
		v := tc.v
		if v < 0 {
			v = 0
		}
		// hi is exclusive except for the last bucket, which absorbs
		// everything up to and including MaxInt64.
		if v < lo || (v >= hi && tc.bucket != histBuckets-1) {
			t.Errorf("value %d outside its bucket bounds [%d, %d)", tc.v, lo, hi)
		}
	}
	if lo, hi := BucketBounds(0); lo != 0 || hi != 2 {
		t.Errorf("BucketBounds(0) = [%d, %d), want [0, 2)", lo, hi)
	}
	if _, hi := BucketBounds(histBuckets - 1); hi != math.MaxInt64 {
		t.Errorf("last bucket hi = %d, want MaxInt64", hi)
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 106 {
		t.Errorf("sum = %d, want 106", h.Sum())
	}
	if got := h.max.Load(); got != 100 {
		t.Errorf("max = %d, want 100", got)
	}
	snap := snapshotHistogram(&h)
	if snap.Mean != 106.0/4 {
		t.Errorf("mean = %v, want %v", snap.Mean, 106.0/4)
	}
	var total int64
	for _, b := range snap.Buckets {
		total += b.Count
	}
	if total != 4 {
		t.Errorf("bucket counts sum to %d, want 4", total)
	}
}

// snapshotHistogram snapshots one histogram through a registry, so the
// test exercises the exported path.
func snapshotHistogram(h *Histogram) HistogramSnapshot {
	r := NewRegistry()
	r.mu.Lock()
	r.hists["h"] = h
	r.mu.Unlock()
	return r.Snapshot().Histograms["h"]
}

// TestRegistryConcurrency hammers one registry from many goroutines
// (lookups, updates, snapshots, spans) — run under -race this is the
// concurrency-safety proof for sharing a recorder across sweep workers.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Inc()
				r.Gauge("gauge").SetMax(int64(i))
				r.FloatGauge("ratio").Set(float64(i))
				r.Histogram("lat").Observe(int64(i))
				if i%128 == 0 {
					sp := r.Span("work")
					sp.Child("inner").End()
					sp.End()
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != goroutines*iters {
		t.Errorf("shared counter = %d, want %d", got, goroutines*iters)
	}
	snap := r.Snapshot()
	if snap.Histograms["lat"].Count != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", snap.Histograms["lat"].Count, goroutines*iters)
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	root := r.Span("evaluate")
	a := root.Child("compile")
	time.Sleep(time.Millisecond)
	if a.End() <= 0 {
		t.Error("ended child has non-positive duration")
	}
	b := root.Child("convert")
	bb := b.Child("layer")
	bb.End()
	b.End()
	// Leave root running: snapshot must report it in flight with
	// elapsed-so-far.
	snap := r.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("got %d root spans, want 1", len(snap.Spans))
	}
	rs := snap.Spans[0]
	if rs.Name != "evaluate" || !rs.Running {
		t.Errorf("root span = %+v, want running 'evaluate'", rs)
	}
	if len(rs.Children) != 2 {
		t.Fatalf("got %d children, want 2", len(rs.Children))
	}
	if rs.Children[0].Name != "compile" || rs.Children[0].Running {
		t.Errorf("child 0 = %+v, want ended 'compile'", rs.Children[0])
	}
	if rs.Children[1].Children[0].Name != "layer" {
		t.Errorf("grandchild = %+v, want 'layer'", rs.Children[1].Children[0])
	}
	if rs.Seconds < rs.Children[0].Seconds {
		t.Error("running root shorter than its finished child")
	}
	d := root.End()
	if again := root.End(); again != d {
		t.Errorf("second End returned %v, want first duration %v", again, d)
	}
}

// TestSpanChainTiles checks that a First/Next chain tiles its parent:
// the first phase starts at the parent's start, each later phase at
// the exact instant its predecessor ended, ending the parent ends the
// running phase at the same instant, and a span already ended keeps
// its duration.
func TestSpanChainTiles(t *testing.T) {
	r := NewRegistry()
	root := r.Span("evaluate")
	time.Sleep(100 * time.Microsecond)
	sp := root.First("prepare")
	first := sp
	if !first.start.Equal(root.start) {
		t.Errorf("first phase starts at %v, root at %v", first.start, root.start)
	}
	for _, name := range []string{"encode", "order", "compile"} {
		time.Sleep(100 * time.Microsecond)
		sp = sp.Next(name)
	}
	sp.End()
	ended := sp.End()
	late := sp.Next("late")
	if late == nil || sp.End() != ended {
		t.Error("Next on an ended span changed its duration")
	}
	time.Sleep(100 * time.Microsecond)
	root.End()
	if !late.ended || !late.start.Add(late.dur).Equal(root.start.Add(root.dur)) {
		t.Error("ending the root did not end its running phase at the same instant")
	}

	root.mu.Lock()
	kids := append([]*Span(nil), root.children...)
	root.mu.Unlock()
	if len(kids) != 5 || kids[0] != first {
		t.Fatalf("root has %d children, want prepare, encode, order, compile, late", len(kids))
	}
	for i := 1; i < 4; i++ {
		prev, cur := kids[i-1], kids[i]
		if !prev.ended || !prev.start.Add(prev.dur).Equal(cur.start) {
			t.Errorf("%s ends at %v, %s starts at %v: want the same instant",
				prev.name, prev.start.Add(prev.dur), cur.name, cur.start)
		}
		if cur.parent != root {
			t.Errorf("%s is not a child of the root", cur.name)
		}
	}

	var nilSpan *Span
	if nilSpan.Next("x") != nil || nilSpan.First("x") != nil || r.Span("alone").Next("x") != nil {
		t.Error("First or Next on a nil span, or Next on a root span, returned non-nil")
	}
}

func TestRootSpanCap(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < maxRootSpans+10; i++ {
		r.Span("s").End()
	}
	if n := len(r.Snapshot().Spans); n != maxRootSpans {
		t.Errorf("retained %d root spans, want cap %d", n, maxRootSpans)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("bdd.apply_cache_hits").Add(10)
	r.Gauge("yield.m").Set(6)
	r.FloatGauge("yield.value").Set(0.934)
	r.Histogram("sweep.point_ns").Observe(1500)
	r.Span("evaluate").End()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if snap.Counters["bdd.apply_cache_hits"] != 10 {
		t.Errorf("counter roundtrip = %d, want 10", snap.Counters["bdd.apply_cache_hits"])
	}
	if snap.Gauges["yield.m"] != 6 {
		t.Errorf("gauge roundtrip = %d, want 6", snap.Gauges["yield.m"])
	}
	if snap.FloatGauges["yield.value"] != 0.934 {
		t.Errorf("float gauge roundtrip = %v, want 0.934", snap.FloatGauges["yield.value"])
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "evaluate" {
		t.Errorf("span roundtrip = %+v", snap.Spans)
	}
	keys := SortedBucketKeys(snap.Counters)
	if len(keys) != 1 || keys[0] != "bdd.apply_cache_hits" {
		t.Errorf("SortedBucketKeys = %v", keys)
	}
}

func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := lockedWriter{mu: &mu, w: &buf}
	p := NewProgress(w, "sweep", 10, time.Hour) // ticker never fires; final line only
	p.Add(4)
	p.Add(6)
	if p.Done() != 10 {
		t.Errorf("done = %d, want 10", p.Done())
	}
	p.Close()
	p.Close() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "sweep: 10 done in") {
		t.Errorf("final line missing, got %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Errorf("want exactly one line, got %q", out)
	}
}

// lockedWriter serializes writes so the test can read the buffer after
// Close without racing the reporter goroutine.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
