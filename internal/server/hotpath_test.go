package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/obs"
	"socyield/internal/yield"
)

// serveEvaluate sends one in-process POST /v1/evaluate through the
// server's full handler chain and decodes the response.
func serveEvaluate(t testing.TB, h http.Handler, body string) EvaluateResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewBufferString(body))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("POST /v1/evaluate %s: status %d: %s", body, rw.Code, rw.Body)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp
}

// TestSharedBenchSystemUnderConcurrentOverrides runs concurrent
// evaluations of one bench, with and without a lethality override, on
// the shared resolved system. The shared system's P_i must never
// change, every response must equal the sequential one for its body,
// and benchmarks.ByName must run once for the name. Run it under
// -race: an override written into the shared system is a data race.
func TestSharedBenchSystemUnderConcurrentOverrides(t *testing.T) {
	rec := obs.NewRegistry()
	s := New(Config{Metrics: rec})
	h := s.Handler()

	fresh, err := benchmarks.ByName("MS2")
	if err != nil {
		t.Fatal(err)
	}
	override := make([]float64, len(fresh.Components))
	for i, c := range fresh.Components {
		override[i] = c.P
	}
	// Same P_L (same model key), lethality moved between two components.
	override[0], override[1] = override[0]+override[1]/2, override[1]/2
	ovJSON, err := json.Marshal(override)
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		`{"bench": "MS2", "defects": {"lambda": 2, "alpha": 0.25}, "epsilon": 1e-2, "sensitivities": true}`,
		fmt.Sprintf(`{"bench": "MS2", "defects": {"lambda": 2, "alpha": 0.25}, "epsilon": 1e-2, "lethalities": %s}`, ovJSON),
	}
	want := make([]EvaluateResponse, len(bodies))
	for i, b := range bodies {
		want[i] = serveEvaluate(t, h, b)
	}
	if want[0].ModelKey != want[1].ModelKey || want[0].Yield == want[1].Yield {
		t.Fatalf("override should share the model but change the yield: %+v vs %+v", want[0], want[1])
	}
	entry, err := s.systems.get("MS2")
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g + i) % len(bodies)
				req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewBufferString(bodies[k]))
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, req)
				var got EvaluateResponse
				if rw.Code != http.StatusOK {
					errs <- fmt.Errorf("body %d: status %d", k, rw.Code)
					continue
				}
				if err := json.Unmarshal(rw.Body.Bytes(), &got); err != nil {
					errs <- err
					continue
				}
				if got.Yield != want[k].Yield || got.ErrorBound != want[k].ErrorBound || !got.CacheHit {
					errs <- fmt.Errorf("body %d: yield %v bound %v hit %v, want %v %v true",
						k, got.Yield, got.ErrorBound, got.CacheHit, want[k].Yield, want[k].ErrorBound)
					continue
				}
				for j, sens := range got.Sensitivities {
					if sens != want[k].Sensitivities[j] {
						errs <- fmt.Errorf("body %d: sensitivity %d = %v, want %v", k, j, sens, want[k].Sensitivities[j])
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i, c := range entry.sys.Components {
		if c.P != fresh.Components[i].P {
			t.Errorf("shared system component %d: P = %v, want %v", i, c.P, fresh.Components[i].P)
		}
	}
	if n := rec.Counter("resolve.systems_built").Load(); n != 1 {
		t.Errorf("resolve.systems_built = %d, want 1 (ByName once per name)", n)
	}
}

// TestBenchCacheHitSkipsByNameAndHash checks that once a bench model is
// warm, a cache hit neither regenerates the system (ByName) nor hashes
// its model key (SHA-256), and that a new ε on the same bench hashes
// once without regenerating.
func TestBenchCacheHitSkipsByNameAndHash(t *testing.T) {
	rec := obs.NewRegistry()
	h := New(Config{Metrics: rec}).Handler()
	body := func(eps float64) string {
		return fmt.Sprintf(`{"bench": "MS2", "defects": {"lambda": 1.5, "alpha": 2}, "epsilon": %g}`, eps)
	}
	built := rec.Counter("resolve.systems_built")
	hashes := rec.Counter("resolve.key_hashes")

	if r := serveEvaluate(t, h, body(1e-3)); r.CacheHit {
		t.Fatal("first request hit the cache")
	}
	if built.Load() != 1 || hashes.Load() != 1 {
		t.Fatalf("after the first request: systems_built %d, key_hashes %d; want 1, 1", built.Load(), hashes.Load())
	}
	for i := 0; i < 5; i++ {
		if r := serveEvaluate(t, h, body(1e-3)); !r.CacheHit {
			t.Fatalf("request %d missed the cache", i)
		}
	}
	if built.Load() != 1 || hashes.Load() != 1 {
		t.Errorf("cache hits ran ByName %d and SHA-256 %d times in total; want 1, 1", built.Load(), hashes.Load())
	}

	serveEvaluate(t, h, body(1e-2))
	if built.Load() != 1 || hashes.Load() != 2 {
		t.Errorf("a new ε: systems_built %d, key_hashes %d; want 1, 2", built.Load(), hashes.Load())
	}
}

// TestSystemTableBoundedAndSkipsUnknown checks that the resolved-system
// table keeps at most CacheEntries names and does not keep names ByName
// rejects.
func TestSystemTableBoundedAndSkipsUnknown(t *testing.T) {
	rec := obs.NewRegistry()
	tbl := newSystemTable(2, rec)
	for _, name := range []string{"MS2", "ESEN4x1", "MS2", "MS4", "MS2"} {
		if _, err := tbl.get(name); err != nil {
			t.Fatal(err)
		}
	}
	// MS2 stayed recent throughout; ESEN4x1 was evicted by MS4.
	if got := rec.Counter("resolve.systems_built").Load(); got != 3 {
		t.Errorf("systems_built = %d, want 3", got)
	}
	if _, err := tbl.get("nonsense"); err == nil {
		t.Error("unknown bench resolved")
	}
	if n := tbl.lru.Len(); n != 2 || len(tbl.byName) != 2 {
		t.Errorf("table holds %d/%d entries, want 2", n, len(tbl.byName))
	}
	if _, ok := tbl.byName["nonsense"]; ok {
		t.Error("table kept an unknown name")
	}
}

// TestSystemTableUnknownInFlightEvictsNothing checks that a name whose
// generation is still running does not count towards the capacity: a
// real system finishing meanwhile evicts only as many real systems as
// the capacity requires, and when the unknown name then fails the
// table still holds a full set of real systems.
func TestSystemTableUnknownInFlightEvictsNothing(t *testing.T) {
	rec := obs.NewRegistry()
	tbl := newSystemTable(2, rec)
	started, release := make(chan struct{}), make(chan struct{})
	tbl.generate = func(name string) (*yield.System, error) {
		if name == "nonsense" {
			close(started)
			<-release
		}
		return benchmarks.ByName(name)
	}
	for _, name := range []string{"MS2", "ESEN4x1"} {
		if _, err := tbl.get(name); err != nil {
			t.Fatal(err)
		}
	}
	failed := make(chan error)
	go func() {
		_, err := tbl.get("nonsense")
		failed <- err
	}()
	<-started
	// MS4 finishes while "nonsense" is in flight: only MS2 goes.
	if _, err := tbl.get("MS4"); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-failed; err == nil {
		t.Fatal("unknown bench resolved")
	}
	if n := tbl.lru.Len(); n != 2 || len(tbl.byName) != 2 || tbl.ready != 2 {
		t.Errorf("table holds %d/%d entries (%d ready), want 2", n, len(tbl.byName), tbl.ready)
	}
	for _, name := range []string{"ESEN4x1", "MS4"} {
		if _, ok := tbl.byName[name]; !ok {
			t.Errorf("%s was evicted", name)
		}
	}
	if got := rec.Counter("resolve.systems_built").Load(); got != 4 {
		t.Errorf("systems_built = %d, want 4", got)
	}
}

// BenchmarkEvaluateHit measures one cached ESEN4x2 /v1/evaluate through
// the in-process handler chain: resolve, memoised model key, cache
// lookup, one ROMDD pass and the JSON response.
func BenchmarkEvaluateHit(b *testing.B) {
	h := New(Config{}).Handler()
	const body = `{"bench": "ESEN4x2", "defects": {"lambda": 2, "alpha": 2}, "epsilon": 5e-3}`
	serveEvaluate(b, h, body)
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewBufferString(body))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rw.Code, rw.Body)
		}
	}
}
