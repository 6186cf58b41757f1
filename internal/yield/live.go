package yield

import (
	"sync"
	"time"

	"socyield/internal/obs"
)

// livePublishInterval is how often the live publisher mirrors the
// build's atomic state into registry gauges. It only needs to outpace
// the flight-recorder sampler (default 100ms as well); the work per
// tick is a dozen atomic loads and stores.
const livePublishInterval = 100 * time.Millisecond

// startLivePublisher launches a goroutine that mirrors the running
// build into registry gauges so the flight-recorder sampler (which
// only reads instruments) sees mid-build values: the live ROBDD node
// count and the phase-weighted progress of the BuildState. Everything
// it reads is a BuildState atomic, so the publisher is race-free
// against the build goroutine.
//
// The returned stop function halts the goroutine; it performs no final
// flush (end-of-run gauge values come from EngineStats.publish). With
// a nil registry nothing starts and stop is a no-op.
func startLivePublisher(rec *obs.Registry, bs *obs.BuildState) (stop func()) {
	if rec == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var (
			gLive       = rec.Gauge("bdd.live")
			gPhase      = rec.Gauge("build.phase")
			gPhaseDone  = rec.Gauge("build.phase_done")
			gPhaseTotal = rec.Gauge("build.phase_total")
			gProgress   = rec.FloatGauge("build.progress")
		)
		flush := func() {
			st := bs.Snapshot()
			gPhase.Set(int64(bs.Phase()))
			gPhaseDone.Set(st.PhaseDone)
			gPhaseTotal.Set(st.PhaseTotal)
			gProgress.Set(st.Progress)
			if st.LiveNodes > 0 {
				gLive.Set(st.LiveNodes)
			}
		}
		tick := time.NewTicker(livePublishInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				flush()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
