package yield_test

import (
	"fmt"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/obs"
	"socyield/internal/order"
	"socyield/internal/yield"
)

// withLethalities returns a shallow copy of sys with its own
// Components carrying ps — the copy-on-override the server makes.
func withLethalities(sys *yield.System, ps []float64) *yield.System {
	cp := *sys
	cp.Components = append([]yield.Component(nil), sys.Components...)
	for i := range cp.Components {
		cp.Components[i].P = ps[i]
	}
	return &cp
}

// TestKeyMemoMatchesModelKey checks that a memoised key equals
// yield.ModelKey — key, M and error — across systems, ε, orderings,
// forced M, node limits and lethality overrides, on first use and on
// every repeat, and that repeats hash nothing.
func TestKeyMemoMatchesModelKey(t *testing.T) {
	nb := func(lambda, alpha float64) defects.Distribution {
		d, err := defects.NewNegativeBinomial(lambda, alpha)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	type variant struct {
		name string
		opts yield.Options
	}
	var variants []variant
	for _, eps := range []float64{1e-2, 5e-3, 1e-4} {
		for _, dist := range []defects.Distribution{nb(2, 3.4), nb(1, 0.5), defects.Poisson{Lambda: 1.5}} {
			variants = append(variants, variant{fmt.Sprintf("eps=%g/%v", eps, dist), yield.Options{Defects: dist, Epsilon: eps}})
		}
	}
	for _, mv := range []order.MVKind{order.MVWV, order.MVTopology, order.MVWeight} {
		for _, bit := range []order.BitKind{order.BitML, order.BitLM, order.BitTopology} {
			variants = append(variants, variant{fmt.Sprintf("order=%v-%v", mv, bit),
				yield.Options{Defects: nb(2, 3.4), Epsilon: 5e-3, MVOrder: mv, BitOrder: bit}})
		}
	}
	variants = append(variants,
		variant{"force-m=3", yield.Options{Defects: nb(2, 3.4), Epsilon: 5e-3, ForceM: 3, ForceMSet: true}},
		variant{"force-m=0", yield.Options{Defects: nb(2, 3.4), Epsilon: 5e-3, ForceMSet: true}},
		variant{"force-m<0", yield.Options{Defects: nb(2, 3.4), Epsilon: 5e-3, ForceM: -1, ForceMSet: true}},
		variant{"node-limit", yield.Options{Defects: nb(2, 3.4), Epsilon: 5e-3, NodeLimit: 1 << 20}},
		variant{"node-limit<0", yield.Options{Defects: nb(2, 3.4), Epsilon: 5e-3, NodeLimit: -1}},
		variant{"no-defects", yield.Options{Epsilon: 5e-3}},
	)

	for _, name := range []string{"MS2", "MS4", "ESEN4x1", "ESEN4x2"} {
		base, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// Same P_L, different spread; a smaller P_L (a different M for
		// most variants); and an invalid override (P_L > 1).
		n := len(base.Components)
		spread, smaller, invalid := make([]float64, n), make([]float64, n), make([]float64, n)
		for i, c := range base.Components {
			spread[i] = c.P
			smaller[i] = c.P / 4
			invalid[i] = 2 / float64(n)
		}
		spread[0], spread[1] = spread[0]+spread[1]/2, spread[1]/2
		systems := map[string]*yield.System{
			"base":    base,
			"spread":  withLethalities(base, spread),
			"smaller": withLethalities(base, smaller),
			"invalid": withLethalities(base, invalid),
		}
		hashes := obs.NewRegistry().Counter("hashes")
		memo := yield.NewKeyMemo(base, hashes)
		for pass := 0; pass < 2; pass++ {
			before := hashes.Load()
			for sname, sys := range systems {
				for _, v := range variants {
					wantKey, wantM, wantErr := yield.ModelKey(sys, v.opts)
					gotKey, gotM, gotErr := memo.ModelKey(sys, v.opts)
					if gotKey != wantKey || gotM != wantM || (gotErr == nil) != (wantErr == nil) ||
						(gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Errorf("%s/%s/%s pass %d: memo (%s, %d, %v), ModelKey (%s, %d, %v)",
							name, sname, v.name, pass, gotKey, gotM, gotErr, wantKey, wantM, wantErr)
					}
				}
			}
			if pass == 1 && hashes.Load() != before {
				t.Errorf("%s: repeat pass hashed %d keys, want 0", name, hashes.Load()-before)
			}
		}
	}
}

// TestKeyMemoForeignSystem checks that a system with another fault
// tree is keyed correctly, not from the memo.
func TestKeyMemoForeignSystem(t *testing.T) {
	ms2, err := benchmarks.ByName("MS2")
	if err != nil {
		t.Fatal(err)
	}
	other, err := benchmarks.ByName("MS2") // same structure, another netlist
	if err != nil {
		t.Fatal(err)
	}
	esen, err := benchmarks.ByName("ESEN4x1")
	if err != nil {
		t.Fatal(err)
	}
	opts := yield.Options{Defects: defects.Poisson{Lambda: 1}, Epsilon: 1e-3}
	memo := yield.NewKeyMemo(ms2, nil)
	for _, sys := range []*yield.System{other, esen, nil} {
		want, wantM, wantErr := yield.ModelKey(sys, opts)
		got, gotM, gotErr := memo.ModelKey(sys, opts)
		if got != want || gotM != wantM || (gotErr == nil) != (wantErr == nil) {
			t.Errorf("memo (%s, %d, %v), ModelKey (%s, %d, %v)", got, gotM, gotErr, want, wantM, wantErr)
		}
	}
}
