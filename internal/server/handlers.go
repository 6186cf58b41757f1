package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"socyield/internal/defects"
	"socyield/internal/ftdsl"
	"socyield/internal/order"
	"socyield/internal/yield"
)

// DefectSpec selects a defect-count distribution. Dist is one of
// "negative-binomial" (the default; uses Lambda and Alpha), "poisson"
// (Lambda), "geometric" (Lambda), "deterministic" (N), "hierarchical"
// (Lambda, Alpha, Beta — two-level clustering) or "multilevel"
// (Lambda, Alphas — innermost clustering parameter first).
type DefectSpec struct {
	Dist   string    `json:"dist,omitempty"`
	Lambda float64   `json:"lambda,omitempty"`
	Alpha  float64   `json:"alpha,omitempty"`
	Beta   float64   `json:"beta,omitempty"`
	Alphas []float64 `json:"alphas,omitempty"`
	N      int       `json:"n,omitempty"`
}

func (d *DefectSpec) distribution() (defects.Distribution, error) {
	if d == nil {
		return nil, errors.New(`missing "defects"`)
	}
	switch d.Dist {
	case "", "negative-binomial", "nb":
		return defects.NewNegativeBinomial(d.Lambda, d.Alpha)
	case "poisson":
		return defects.NewPoisson(d.Lambda)
	case "geometric":
		g := defects.Geometric{Lambda: d.Lambda}
		if !(d.Lambda > 0) {
			return nil, fmt.Errorf("geometric: lambda %v must be > 0", d.Lambda)
		}
		return g, nil
	case "deterministic":
		if d.N < 0 {
			return nil, fmt.Errorf("deterministic: n %d must be ≥ 0", d.N)
		}
		return defects.Deterministic{N: d.N}, nil
	case "hierarchical":
		return defects.NewHierarchical(d.Lambda, d.Alpha, d.Beta)
	case "multilevel":
		return defects.NewMultilevel(d.Lambda, d.Alphas...)
	default:
		return nil, fmt.Errorf("unknown distribution %q (want negative-binomial, poisson, geometric, deterministic, hierarchical or multilevel)", d.Dist)
	}
}

// ModelRequest names a system and the evaluation options that shape
// its compiled model. Exactly one of Bench and FTDSL must be set.
type ModelRequest struct {
	// Bench is a benchmark name: an entry of the paper's Table 1 or a
	// generalized MS<n> / ESEN<n>x<m>.
	Bench string `json:"bench,omitempty"`
	// FTDSL is a system description in the ftdsl text format.
	FTDSL string `json:"ftdsl,omitempty"`
	// Defects is the defect-count model (required).
	Defects *DefectSpec `json:"defects"`
	// Epsilon is the absolute yield error requirement (default 1e-4).
	Epsilon float64 `json:"epsilon,omitempty"`
	// MVOrder / BitOrder select the ordering heuristics by their paper
	// names (default "w" and "ml").
	MVOrder  string `json:"mv_order,omitempty"`
	BitOrder string `json:"bit_order,omitempty"`
	// Lethalities overrides the per-component P_i of the system
	// description (same order as its components). The compiled model
	// does not depend on them, so overriding costs nothing.
	Lethalities []float64 `json:"lethalities,omitempty"`
}

// EvaluateRequest is the body of POST /v1/evaluate.
type EvaluateRequest struct {
	ModelRequest
	// Sensitivities additionally computes ∂Y/∂P_i per component.
	Sensitivities bool `json:"sensitivities,omitempty"`
}

// ComponentSensitivity is one component's yield derivative.
type ComponentSensitivity struct {
	Component string  `json:"component"`
	DYieldDP  float64 `json:"dyield_dp"`
}

// EvaluateResponse is the body of a successful POST /v1/evaluate.
type EvaluateResponse struct {
	System     string  `json:"system"`
	Components int     `json:"components"`
	M          int     `json:"m"`
	Yield      float64 `json:"yield"`
	// ErrorBound is the tail mass beyond M: the true yield lies in
	// [Yield, Yield+ErrorBound].
	ErrorBound float64 `json:"error_bound"`
	// ModelKey identifies the compiled model this request used;
	// CacheHit reports whether it was already compiled.
	ModelKey      string                 `json:"model_key"`
	CacheHit      bool                   `json:"cache_hit"`
	ROMDDNodes    int                    `json:"romdd_nodes"`
	Sensitivities []ComponentSensitivity `json:"sensitivities,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: the model's yield is
// reevaluated for each λ in Lambdas on one shared compiled model (the
// distribution family and its other parameters come from Defects).
type SweepRequest struct {
	ModelRequest
	Lambdas []float64 `json:"lambdas"`
	// Workers is the evaluation parallelism (capped by the server's
	// SweepWorkers; results are identical for every worker count).
	Workers int `json:"workers,omitempty"`
}

// SweepPointResponse is the yield at one λ of a sweep.
type SweepPointResponse struct {
	Lambda     float64 `json:"lambda"`
	Yield      float64 `json:"yield"`
	ErrorBound float64 `json:"error_bound"`
	Error      string  `json:"error,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	System   string               `json:"system"`
	M        int                  `json:"m"`
	ModelKey string               `json:"model_key"`
	CacheHit bool                 `json:"cache_hit"`
	Results  []SweepPointResponse `json:"results"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// badRequest wraps a client-input error for status selection.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }

// resolved is a request's system, per-component lethalities and
// options, with the ModelKey memo of a bench system (nil for ftdsl
// input).
type resolved struct {
	sys  *yield.System
	ps   []float64
	opts yield.Options
	keys *yield.KeyMemo
}

// resolve turns a ModelRequest into the system, its per-component
// lethalities and the yield.Options the CLI path would use for the
// same inputs — same defaults, same validation — so server results are
// bit-identical to yield.Evaluate. Bench systems come from the
// resolved-system table and are shared between requests; lethality
// overrides go into a shallow copy with its own Components.
func (s *Server) resolve(req *ModelRequest) (resolved, error) {
	var r resolved
	switch {
	case req.Bench != "" && req.FTDSL != "":
		return r, badRequest{errors.New(`give either "bench" or "ftdsl", not both`)}
	case req.Bench != "":
		e, err := s.systems.get(req.Bench)
		if err != nil {
			return r, badRequest{err}
		}
		r.sys, r.keys = e.sys, e.keys
	case req.FTDSL != "":
		sys, err := ftdsl.Parse(req.FTDSL)
		if err != nil {
			return r, badRequest{err}
		}
		r.sys = sys
	default:
		return r, badRequest{errors.New(`give "bench" or "ftdsl"`)}
	}
	dist, err := req.Defects.distribution()
	if err != nil {
		return r, badRequest{err}
	}
	r.opts = yield.Options{
		Defects:   dist,
		Epsilon:   req.Epsilon,
		NodeLimit: s.cfg.NodeLimit,
	}
	if req.MVOrder != "" {
		if r.opts.MVOrder, err = order.ParseMVKind(req.MVOrder); err != nil {
			return r, badRequest{err}
		}
	}
	if req.BitOrder != "" {
		if r.opts.BitOrder, err = order.ParseBitKind(req.BitOrder); err != nil {
			return r, badRequest{err}
		}
	}
	comps := r.sys.Components
	if req.Lethalities == nil {
		r.ps = make([]float64, len(comps))
		for i, c := range comps {
			r.ps[i] = c.P
		}
		return r, nil
	}
	if len(req.Lethalities) != len(comps) {
		return r, badRequest{fmt.Errorf("lethalities has %d entries, system has %d components", len(req.Lethalities), len(comps))}
	}
	r.ps = req.Lethalities
	sys := *r.sys
	sys.Components = make([]yield.Component, len(comps))
	for i, c := range comps {
		c.P = r.ps[i]
		sys.Components[i] = c
	}
	r.sys = &sys
	return r, nil
}

// compiled returns the cached (or freshly built) Reevaluator for the
// model, keyed by yield.ModelKey (through the bench system's memo when
// there is one). The build pins the truncation point to the key's
// resolved M, so every user of the entry — whatever its distribution
// resolves to — evaluates on exactly the keyed model.
func (s *Server) compiled(ctx context.Context, r resolved) (re *yield.Reevaluator, key string, m int, hit bool, err error) {
	sys, opts := r.sys, r.opts
	key, m, err = r.keys.ModelKey(sys, opts)
	if err != nil {
		return nil, "", 0, false, badRequest{err}
	}
	buildOpts := opts
	buildOpts.ForceM = m
	buildOpts.ForceMSet = true
	// The build publishes into the server registry and registers its
	// BuildState with the tracker for the /v1/builds listing. The
	// request id of the triggering request labels the build's log lines
	// — later coalesced requests share the same build span.
	buildOpts.Recorder = s.cfg.Metrics
	buildOpts.Tracer = s.cfg.Tracer
	reqID := requestID(ctx)
	sysName := sys.Name
	re, hit, err = s.cache.get(ctx, key, func() (*yield.Reevaluator, error) {
		// Second tier: a model another replica (or a past life of this
		// one) already compiled loads in milliseconds. The probe sits
		// inside the single-flight slot, so coalesced requests share one
		// load-or-build across both tiers.
		if re := s.loadFromStore(key, reqID); re != nil {
			s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "model loaded from store",
				slog.String("request_id", reqID),
				slog.String("model_key", key),
				slog.String("system", sysName),
			)
			return re, nil
		}
		bs := s.builds.add(key, sysName)
		defer s.builds.remove(key)
		if s.testBuildHook != nil {
			s.testBuildHook(bs)
		}
		bo := buildOpts
		bo.BuildState = bs
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "model build started",
			slog.String("request_id", reqID),
			slog.String("model_key", key),
			slog.String("system", sysName),
		)
		t0 := time.Now()
		s.cfg.Metrics.Counter("build.compiles").Inc()
		re, err := yield.NewReevaluator(sys, bo)
		dur := time.Since(t0)
		s.cfg.Metrics.Histogram("cache.build_ns").Observe(int64(dur))
		level, msg := slog.LevelInfo, "model build finished"
		if err != nil {
			level, msg = slog.LevelWarn, "model build failed"
		}
		s.cfg.Logger.LogAttrs(context.Background(), level, msg,
			slog.String("request_id", reqID),
			slog.String("model_key", key),
			slog.Duration("duration", dur),
		)
		if err == nil {
			s.saveToStore(key, reqID, re)
		}
		return re, err
	})
	if err != nil {
		return nil, key, m, hit, err
	}
	if re.NumComponents() != len(sys.Components) {
		// Impossible unless two distinct structures collide in ModelKey.
		return nil, key, m, hit, fmt.Errorf("cached model has %d components, request has %d", re.NumComponents(), len(sys.Components))
	}
	return re, key, m, hit, nil
}

// respondError maps an evaluation error to a status code.
func respondError(w http.ResponseWriter, err error) {
	var br badRequest
	switch {
	case errors.As(err, &br):
		writeError(w, http.StatusBadRequest, br.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "evaluation exceeded the request timeout (the model keeps compiling; retry shortly)")
	case errors.Is(err, context.Canceled):
		writeError(w, 499, "client closed request") // nginx convention
	case errors.Is(err, yield.ErrNodeLimit):
		writeError(w, http.StatusUnprocessableEntity, "model exceeds the server's decision-diagram node budget: "+err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if !decode(w, r, &req) {
		return
	}
	rs, err := s.resolve(&req.ModelRequest)
	if err != nil {
		respondError(w, err)
		return
	}
	re, key, m, hit, err := s.compiled(r.Context(), rs)
	if err != nil {
		respondError(w, err)
		return
	}
	sys, ps, opts := rs.sys, rs.ps, rs.opts
	y, bound, err := re.Yield(ps, opts.Defects)
	if err != nil {
		respondError(w, badRequest{err})
		return
	}
	resp := EvaluateResponse{
		System:     sys.Name,
		Components: len(sys.Components),
		M:          m,
		Yield:      y,
		ErrorBound: bound,
		ModelKey:   key,
		CacheHit:   hit,
		ROMDDNodes: re.Result.ROMDDSize,
	}
	if req.Sensitivities {
		ds, err := re.Sensitivities(ps, opts.Defects, 0)
		if err != nil {
			respondError(w, badRequest{err})
			return
		}
		resp.Sensitivities = make([]ComponentSensitivity, len(ds))
		for i, d := range ds {
			resp.Sensitivities[i] = ComponentSensitivity{Component: sys.Components[i].Name, DYieldDP: d}
		}
	}
	s.cfg.Metrics.Counter("evaluate.requests").Inc()
	writeJSON(w, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Lambdas) == 0 {
		writeError(w, http.StatusBadRequest, `"lambdas" must list at least one value`)
		return
	}
	if len(req.Lambdas) > s.cfg.MaxSweepPoints {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("sweep of %d points exceeds the server limit of %d", len(req.Lambdas), s.cfg.MaxSweepPoints))
		return
	}
	rs, err := s.resolve(&req.ModelRequest)
	if err != nil {
		respondError(w, err)
		return
	}
	// Build the per-λ distributions up front so a bad grid point is a
	// 400, not a half-evaluated sweep.
	spec := DefectSpec{Dist: "negative-binomial"}
	if req.Defects != nil {
		spec = *req.Defects
	}
	points := make([]yield.SweepPoint, len(req.Lambdas))
	for i, l := range req.Lambdas {
		ds := spec
		ds.Lambda = l
		dist, err := ds.distribution()
		if err != nil {
			respondError(w, badRequest{fmt.Errorf("lambdas[%d]=%v: %w", i, l, err)})
			return
		}
		points[i] = yield.SweepPoint{PS: rs.ps, Dist: dist}
	}
	re, key, m, hit, err := s.compiled(r.Context(), rs)
	if err != nil {
		respondError(w, err)
		return
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.SweepWorkers {
		workers = s.cfg.SweepWorkers
	}
	results := re.Sweep(points, yield.SweepOptions{
		Workers:  workers,
		Recorder: s.cfg.Metrics,
	})
	resp := SweepResponse{
		System:   rs.sys.Name,
		M:        m,
		ModelKey: key,
		CacheHit: hit,
		Results:  make([]SweepPointResponse, len(results)),
	}
	for i, sr := range results {
		pr := SweepPointResponse{Lambda: req.Lambdas[i], Yield: sr.Yield, ErrorBound: sr.ErrorBound}
		if sr.Err != nil {
			pr.Error = sr.Err.Error()
			pr.Yield, pr.ErrorBound = 0, 0
		}
		resp.Results[i] = pr
	}
	s.cfg.Metrics.Counter("sweep.requests").Inc()
	writeJSON(w, resp)
}
