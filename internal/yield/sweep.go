package yield

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"socyield/internal/defects"
	"socyield/internal/obs"
)

// SweepPoint is one evaluation request of a sweep: per-component
// lethalities PS (the paper's P_i) under defect distribution Dist.
// When Dist is nil the point inherits SweepOptions.Dist.
type SweepPoint struct {
	PS   []float64
	Dist defects.Distribution
}

// SweepResult is the outcome for the sweep point at the same index.
type SweepResult struct {
	// Yield is the pessimistic estimate Y_M for the point's model; the
	// true yield lies in [Yield, Yield+ErrorBound].
	Yield      float64
	ErrorBound float64
	// Err is non-nil when the point's inputs were invalid (results for
	// other points are unaffected).
	Err error
}

// SweepOptions configure a sweep.
type SweepOptions struct {
	// Workers is the number of evaluation goroutines; ≤ 0 means
	// runtime.GOMAXPROCS(0). The results are independent of the worker
	// count: every point's arithmetic is self-contained, so a sweep
	// with Workers: 8 is bit-identical to Workers: 1.
	Workers int
	// Dist is the default defect distribution for points that leave
	// SweepPoint.Dist nil.
	Dist defects.Distribution
	// Recorder, when non-nil, receives sweep instrumentation: a
	// "sweep.point_ns" latency histogram, "sweep.points" and
	// "sweep.errors" counters, per-pool busy time ("sweep.busy_ns") and
	// a "sweep.utilization" gauge (busy time / workers × wall time).
	// Leaving it nil keeps the per-point loop free of clock reads.
	Recorder *obs.Registry
	// Progress, when non-nil, is advanced by one per completed point
	// (one atomic add; safe to share with other phases).
	Progress *obs.Progress
}

func (o SweepOptions) workers(points int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > points {
		w = points
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sweep evaluates a grid of (P_i, distribution) points on the shared
// frozen ROMDD with a bounded worker pool. Results are order-stable:
// out[i] always corresponds to points[i]. Cost per point is one
// lethal-model transform plus one linear ROMDD pass, so sweeps of
// thousands of points are routine; the worker pool exists to use every
// core, not to hide expensive rebuilds — nothing is rebuilt.
//
// Points with invalid inputs report through SweepResult.Err instead of
// failing the whole sweep, so a grid that brushes P_L = 0 or P_L > 1
// at its edges still returns every interior value.
func (r *Reevaluator) Sweep(points []SweepPoint, opts SweepOptions) []SweepResult {
	out := make([]SweepResult, len(points))
	if len(points) == 0 {
		return out
	}
	workers := opts.workers(len(points))
	rec := opts.Recorder
	// Resolve instruments once, outside the point loop; nil stays nil
	// and the loop takes the uninstrumented branch.
	var pointNS *obs.Histogram
	var pointCnt, errCnt, busyNS *obs.Counter
	var sweepStart time.Time
	if rec != nil {
		pointNS = rec.Histogram("sweep.point_ns")
		pointCnt = rec.Counter("sweep.points")
		errCnt = rec.Counter("sweep.errors")
		busyNS = rec.Counter("sweep.busy_ns")
		rec.Gauge("sweep.workers").Set(int64(workers))
		sweepStart = time.Now()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-goroutine scratch space: the frozen ROMDD itself is
			// shared read-only, everything mutable is local.
			sc := r.getScratch()
			defer r.putScratch(sc)
			var localBusy time.Duration
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					break
				}
				dist := points[i].Dist
				if dist == nil {
					dist = opts.Dist
				}
				if dist == nil {
					out[i] = SweepResult{Err: errNoDist}
					errCnt.Inc()
					opts.Progress.Add(1)
					continue
				}
				var t0 time.Time
				if rec != nil {
					t0 = time.Now()
				}
				y, bound, err := r.yieldWith(points[i].PS, dist, sc)
				if rec != nil {
					d := time.Since(t0)
					localBusy += d
					pointNS.Observe(int64(d))
					pointCnt.Inc()
					if err != nil {
						errCnt.Inc()
					}
				}
				out[i] = SweepResult{Yield: y, ErrorBound: bound, Err: err}
				opts.Progress.Add(1)
			}
			busyNS.Add(int64(localBusy))
		}()
	}
	wg.Wait()
	if rec != nil {
		wall := time.Since(sweepStart)
		if denom := wall.Nanoseconds() * int64(workers); denom > 0 {
			rec.FloatGauge("sweep.utilization").Set(float64(busyNS.Load()) / float64(denom))
		}
	}
	return out
}

// errNoDist reports a sweep point with no distribution anywhere.
var errNoDist = errNoDistribution{}

type errNoDistribution struct{}

func (errNoDistribution) Error() string {
	return "yield: sweep point has no distribution (set SweepPoint.Dist or SweepOptions.Dist)"
}

// LambdaGrid is a convenience builder for the most common sweep: fixed
// per-component lethalities ps evaluated against one distribution per
// entry of dists (e.g. negative binomials over a λ×α grid).
func LambdaGrid(ps []float64, dists []defects.Distribution) []SweepPoint {
	points := make([]SweepPoint, len(dists))
	for i, d := range dists {
		points[i] = SweepPoint{PS: ps, Dist: d}
	}
	return points
}
