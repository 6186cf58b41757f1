package store

import (
	"flag"
	"math"
	"os"
	"slices"
	"testing"

	"socyield/internal/benchmarks"
	"socyield/internal/defects"
	"socyield/internal/yield"
)

var update = flag.Bool("update", false, "regenerate the golden compiled-model fixture")

const goldenPath = "testdata/esen4x2.scm"

// Pinned provenance of the golden fixture: ESEN 4×2 under the paper's
// reproduction defaults (negative binomial λ=2, α=3.4, ε=2·10⁻³).
// The integer structure is exact; the yield gets a 1e-12 tolerance
// because Go permits FMA contraction on some architectures, so the
// last bits of a float pipeline are not portable even though each
// single host is deterministic.
const (
	goldenComponents = 26
	goldenM          = 6
	goldenGGates     = 624
	goldenROMDDSize  = 6995
	goldenYield      = 0.8478291396599813
	goldenBound      = 0.001104478751628335
)

// TestGoldenFixtureCompat decodes a fixture encoded by a past build of
// this engine. It is the cross-version compatibility gate: if an
// innocent-looking codec change alters the wire layout, this fails
// before a deploy mixes new binaries with old store directories. On a
// deliberate layout change, bump FormatVersion and regenerate with
// `go test ./internal/store -run TestGoldenFixture -update`.
func TestGoldenFixtureCompat(t *testing.T) {
	sys, opts := goldenModel(t)
	if *update {
		snap, _ := buildSnapshot(t, sys, opts)
		enc, err := Encode(snap)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s: %d bytes, yield %.17g, bound %.17g, M=%d, ROMDD %d nodes",
			goldenPath, len(enc), snap.Build.Yield, snap.Build.ErrorBound, snap.M, snap.Build.ROMDDSize)
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update): %v", err)
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if snap.SystemName != "ESEN4x2" || snap.Components != goldenComponents || snap.M != goldenM ||
		snap.Build.GGates != goldenGGates || snap.Build.ROMDDSize != goldenROMDDSize {
		t.Fatalf("fixture structure drifted: %+v", snap)
	}
	if math.Abs(snap.Build.Yield-goldenYield) > 1e-12 || math.Abs(snap.Build.ErrorBound-goldenBound) > 1e-12 {
		t.Fatalf("fixture yield drifted: %.17g / %.17g", snap.Build.Yield, snap.Build.ErrorBound)
	}

	// The stored key must be the key this engine computes for the same
	// inputs — otherwise content addressing breaks silently and every
	// lookup misses.
	key, m, err := yield.ModelKey(sys, opts)
	if err != nil {
		t.Fatalf("ModelKey: %v", err)
	}
	if key != snap.ModelKey {
		t.Fatalf("fixture key %s, engine computes %s — ModelKey drifted without an EngineRevision bump?", snap.ModelKey, key)
	}
	if m != snap.M {
		t.Fatalf("fixture M %d, engine computes %d", snap.M, m)
	}

	// A model loaded from a years-old file must still evaluate: restore
	// and reproduce its own build-time yield.
	re, err := yield.RestoreReevaluator(snap)
	if err != nil {
		t.Fatalf("RestoreReevaluator: %v", err)
	}
	y, b, err := re.Yield(lethalities(sys), opts.Defects)
	if err != nil {
		t.Fatalf("Yield: %v", err)
	}
	if math.Abs(y-snap.Build.Yield) > 1e-12 || math.Abs(b-snap.Build.ErrorBound) > 1e-12 {
		t.Fatalf("restored fixture evaluates %.17g/%.17g, build recorded %.17g/%.17g",
			y, b, snap.Build.Yield, snap.Build.ErrorBound)
	}
}

// TestGoldenFixtureMatchesFreshBuild checks that a fresh build of the
// fixture's model freezes to the fixture's ROMDD arrays and group
// sequence exactly. TestGoldenFixtureCompat only decodes the fixture,
// so without this a change to the Freeze numbering would go unnoticed
// while every newly stored model silently changed its bytes. The
// arrays are integers, so they compare exactly on any architecture.
func TestGoldenFixtureMatchesFreshBuild(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	stored, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sys, opts := goldenModel(t)
	fresh, _ := buildSnapshot(t, sys, opts)
	got, want := fresh.Frozen.Data(), stored.Frozen.Data()
	if got.Root != want.Root || !slices.Equal(got.Domains, want.Domains) ||
		!slices.Equal(got.Levels, want.Levels) || !slices.Equal(got.Kids, want.Kids) {
		t.Errorf("fresh ROMDD differs from the fixture: %d nodes / %d kids, root %d; fixture %d / %d, root %d",
			len(got.Levels), len(got.Kids), got.Root, len(want.Levels), len(want.Kids), want.Root)
	}
	if !slices.Equal(fresh.GroupSeq, stored.GroupSeq) {
		t.Errorf("fresh group sequence %v, fixture %v", fresh.GroupSeq, stored.GroupSeq)
	}
}

func goldenModel(t *testing.T) (*yield.System, yield.Options) {
	t.Helper()
	sys, err := benchmarks.ByName("ESEN4x2")
	if err != nil {
		t.Fatalf("ESEN4x2: %v", err)
	}
	dist, err := defects.NewNegativeBinomial(2, 3.4)
	if err != nil {
		t.Fatalf("NewNegativeBinomial: %v", err)
	}
	return sys, yield.Options{Defects: dist, Epsilon: 2e-3}
}
