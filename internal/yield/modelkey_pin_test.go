package yield_test

import (
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/yield"
)

// TestModelKeyPinned pins the hex ModelKey of one fixed input. Stored
// models (yieldd -store-dir, yieldsoc -save-model) are filed under this
// key, so any change to it — an Options field entering or leaving the
// hash, a different canonical cone encoding — turns every existing
// store into misses. Change the pinned value only together with a
// deliberate store-format migration.
func TestModelKeyPinned(t *testing.T) {
	sys, err := benchmarks.ESEN(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantKey = "63259a8af19a9b8549a12a811096650767e16a50b16cb0fa5c1a52b2954018a3"
		wantM   = 5
	)
	key, m, err := yield.ModelKey(sys, yield.Options{Defects: dist, Epsilon: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	if key != wantKey || m != wantM {
		t.Errorf("ModelKey(ESEN4x2, NB(2, 3.4), ε=5e-3) = %s, M=%d; want %s, M=%d", key, m, wantKey, wantM)
	}
}
