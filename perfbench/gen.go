package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// model is one compiled-model identity the workloads exercise: a
// benchmark system under a truncation requirement and an ordering pair.
// Every λ a generator draws for it lies in lambdaLo..lambdaHi, a band
// in which the truncation point M does not move (TestLambdaBandsKeepM),
// so all requests for a model share one model key.
type model struct {
	Bench    string
	Comps    int // component count of the benchmark system
	Alpha    float64
	Epsilon  float64
	MVOrder  string
	BitOrder string
	// Pin is the yield at the canonical inputs (the system's own
	// lethalities, λ = 2, Alpha), computed once and stored here.
	Pin float64
}

// name labels a model in records and trace spans.
func (m model) name() string {
	return fmt.Sprintf("%s/eps=%g/%s-%s", m.Bench, m.Epsilon, m.MVOrder, m.BitOrder)
}

const (
	// canonicalLambda is the λ of every pinned yield and of the
	// serve-hit warm-up requests.
	canonicalLambda = 2.0
	// lambdaLo..lambdaHi is the per-request λ band (see model).
	lambdaLo, lambdaHi = 1.9, 2.2
	// lethalSum is P_L = ΣP_i of every generated lethality vector; it
	// equals P_L of every benchmark system used here, so M stays in
	// the band's range.
	lethalSum = 0.5
	// sweepPoints is the grid size of a /v1/sweep request.
	sweepPoints = 16
)

// request is one generated client request. The benchmark sends its JSON
// body and checks the response against a library evaluation of the
// same inputs.
type request struct {
	Model int // index into the workload's model table
	Sweep bool
	// Lambda is the defect mean λ. A sweep evaluates its Lambdas grid;
	// its Lambda still fixes the truncation point and so the model key.
	Lambda      float64
	Lambdas     []float64
	Lethalities []float64
}

// wireModel is the subset of the server's request schema the benchmark
// sends. Field names follow yieldd's JSON API.
type wireModel struct {
	Bench       string     `json:"bench"`
	Defects     wireDefect `json:"defects"`
	Epsilon     float64    `json:"epsilon"`
	MVOrder     string     `json:"mv_order"`
	BitOrder    string     `json:"bit_order"`
	Lethalities []float64  `json:"lethalities,omitempty"`
	Lambdas     []float64  `json:"lambdas,omitempty"`
}

type wireDefect struct {
	Dist   string  `json:"dist"`
	Lambda float64 `json:"lambda,omitempty"`
	Alpha  float64 `json:"alpha"`
}

// path returns the endpoint the request goes to.
func (r request) path() string {
	if r.Sweep {
		return "/v1/sweep"
	}
	return "/v1/evaluate"
}

// body encodes the request for the server.
func (r request) body(models []model) []byte {
	m := models[r.Model]
	w := wireModel{
		Bench:       m.Bench,
		Defects:     wireDefect{Dist: "negative-binomial", Lambda: r.Lambda, Alpha: m.Alpha},
		Epsilon:     m.Epsilon,
		MVOrder:     m.MVOrder,
		BitOrder:    m.BitOrder,
		Lethalities: r.Lethalities,
		Lambdas:     r.Lambdas,
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return b
}

// mixEntry asks a generator for Count requests of one kind per pass.
type mixEntry struct {
	Model int
	Sweep bool
	Count int
}

// generate returns the request set of a workload: exactly Count
// requests of every mix entry, in mix order, each with a seeded λ (or λ
// grid) and lethality vector. The per-kind counts are fixed rather than
// drawn so that the cost of a pass does not depend on the seed.
func generate(seed int64, models []model, mix []mixEntry) []request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	for _, e := range mix {
		for range e.Count {
			r := request{
				Model:       e.Model,
				Sweep:       e.Sweep,
				Lambda:      lambdaLo + rng.Float64()*(lambdaHi-lambdaLo),
				Lethalities: lethalities(rng, models[e.Model].Comps),
			}
			if e.Sweep {
				r.Lambdas = make([]float64, sweepPoints)
				for i := range r.Lambdas {
					r.Lambdas[i] = lambdaLo + rng.Float64()*(lambdaHi-lambdaLo)
				}
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// passRand is the random source of pass k of a run with the given
// seed. Every pass sends the same requests in its own order, so a
// run's median pass does not hinge on one arrangement of them.
func passRand(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(k) + 1))
}

// shuffled is a pass order for serve-hit: a random permutation of the
// request set.
func shuffled(seed int64, k int, reqs []request) []int {
	return passRand(seed, k).Perm(len(reqs))
}

// cyclic is a pass order for serve-miss: a random order of the models,
// repeated, each round taking every model's next request, so that the
// clients cycle through the models in a fixed rotation.
func cyclic(seed int64, k int, reqs []request, models int) []int {
	byModel := make([][]int, models)
	for i, r := range reqs {
		byModel[r.Model] = append(byModel[r.Model], i)
	}
	rotation := passRand(seed, k).Perm(models)
	var order []int
	for round := 0; len(order) < len(reqs); round++ {
		for _, m := range rotation {
			if round < len(byModel[m]) {
				order = append(order, byModel[m][round])
			}
		}
	}
	return order
}

// lethalities draws n per-component lethalities with random relative
// weights in [0.5, 1.5), scaled to sum to lethalSum.
func lethalities(rng *rand.Rand, n int) []float64 {
	ps := make([]float64, n)
	sum := 0.0
	for i := range ps {
		ps[i] = 0.5 + rng.Float64()
		sum += ps[i]
	}
	for i := range ps {
		ps[i] *= lethalSum / sum
	}
	return ps
}
