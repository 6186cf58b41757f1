package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"socyield/internal/defects"
	"socyield/internal/order"
	"socyield/internal/yield"
)

// dist returns the trial's defect distribution, cycling through every
// supported family.
func dist(t *testing.T, trial int, rng *rand.Rand) defects.Distribution {
	t.Helper()
	switch trial % 4 {
	case 0:
		d, err := defects.NewNegativeBinomial(0.5+2*rng.Float64(), 0.5+3*rng.Float64())
		if err != nil {
			t.Fatalf("NewNegativeBinomial: %v", err)
		}
		return d
	case 1:
		d, err := defects.NewPoisson(0.3 + 1.5*rng.Float64())
		if err != nil {
			t.Fatalf("NewPoisson: %v", err)
		}
		return d
	case 2:
		return defects.Geometric{Lambda: 0.5 + rng.Float64()}
	default:
		return defects.Deterministic{N: 1 + rng.Intn(3)}
	}
}

// TestEncodeDecodeRoundTrip is the headline property test: 50 random
// fault trees, all four defect families, both ordering combinations —
// encode → decode → restore must reproduce the compiled model exactly.
// "Exactly" is `==` on every build scalar and on every evaluation the
// restored model performs, including concurrent sweeps.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	orderings := []struct {
		mv  order.MVKind
		bit order.BitKind
	}{
		{order.MVWeight, order.BitML},
		{order.MVWV, order.BitLM},
	}
	for trial := 0; trial < 50; trial++ {
		sys := randomSystem(rng)
		ord := orderings[trial%len(orderings)]
		opts := yield.Options{
			Defects:  dist(t, trial, rng),
			Epsilon:  1e-3 * (0.5 + rng.Float64()),
			MVOrder:  ord.mv,
			BitOrder: ord.bit,
		}
		snap, re := buildSnapshot(t, sys, opts)

		enc, err := Encode(snap)
		if err != nil {
			t.Fatalf("trial %d: Encode: %v", trial, err)
		}
		enc2, err := Encode(snap)
		if err != nil {
			t.Fatalf("trial %d: re-Encode: %v", trial, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("trial %d: Encode is not deterministic", trial)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("trial %d: Decode: %v", trial, err)
		}

		if got.EngineRevision != snap.EngineRevision || got.ModelKey != snap.ModelKey ||
			got.SystemName != snap.SystemName || got.Components != snap.Components ||
			got.M != snap.M || got.Build != snap.Build {
			t.Fatalf("trial %d: decoded metadata differs:\n got %+v\nwant %+v", trial, got, snap)
		}
		if len(got.GroupSeq) != len(snap.GroupSeq) {
			t.Fatalf("trial %d: group seq length %d vs %d", trial, len(got.GroupSeq), len(snap.GroupSeq))
		}
		for i := range got.GroupSeq {
			if got.GroupSeq[i] != snap.GroupSeq[i] {
				t.Fatalf("trial %d: group seq[%d] = %d, want %d", trial, i, got.GroupSeq[i], snap.GroupSeq[i])
			}
		}
		if got.Frozen.Size() != snap.Frozen.Size() {
			t.Fatalf("trial %d: arena size %d vs %d", trial, got.Frozen.Size(), snap.Frozen.Size())
		}

		loaded, err := yield.RestoreReevaluator(got)
		if err != nil {
			t.Fatalf("trial %d: RestoreReevaluator: %v", trial, err)
		}
		ps := lethalities(sys)
		dists := []defects.Distribution{
			dist(t, trial, rng), dist(t, trial+1, rng), dist(t, trial+2, rng), dist(t, trial+3, rng),
		}
		for _, d := range dists {
			y1, b1, err1 := re.Yield(ps, d)
			y2, b2, err2 := loaded.Yield(ps, d)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d: Yield errors: %v / %v", trial, err1, err2)
			}
			if y1 != y2 || b1 != b2 {
				t.Fatalf("trial %d: %v: loaded model evaluates %v/%v, fresh %v/%v", trial, d, y2, b2, y1, b1)
			}
		}
		points := yield.LambdaGrid(ps, dists)
		fresh := re.Sweep(points, yield.SweepOptions{Workers: 2})
		warm := loaded.Sweep(points, yield.SweepOptions{Workers: 3})
		for i := range fresh {
			if fresh[i] != warm[i] {
				t.Fatalf("trial %d: sweep point %d: loaded %+v, fresh %+v", trial, i, warm[i], fresh[i])
			}
		}
	}
}

// TestRoundTripBenchmark round-trips a real benchmark model (the kind
// the store will actually hold) and spot-checks the restored build
// summary against the live one.
func TestRoundTripBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark compile in -short mode")
	}
	snap, re, sys := benchSnapshot(t, "MS2")
	enc, err := Encode(snap)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	loaded, err := yield.RestoreReevaluator(got)
	if err != nil {
		t.Fatalf("RestoreReevaluator: %v", err)
	}
	if loaded.Result.Yield != re.Result.Yield || loaded.Result.ErrorBound != re.Result.ErrorBound ||
		loaded.Result.ROMDDSize != re.Result.ROMDDSize || loaded.M() != re.M() {
		t.Fatalf("restored benchmark differs: %+v vs %+v", loaded.Result, re.Result)
	}
	d, err := defects.NewNegativeBinomial(1.5, 2.0)
	if err != nil {
		t.Fatalf("NewNegativeBinomial: %v", err)
	}
	ps := lethalities(sys)
	y1, b1, err1 := re.Yield(ps, d)
	y2, b2, err2 := loaded.Yield(ps, d)
	if err1 != nil || err2 != nil || y1 != y2 || b1 != b2 {
		t.Fatalf("benchmark reevaluation differs: %v/%v (%v) vs %v/%v (%v)", y2, b2, err2, y1, b1, err1)
	}
}

// TestUvarintLen pins the size helper Encode uses to size its buffer
// against the encoder itself, at every length boundary.
func TestUvarintLen(t *testing.T) {
	var buf [binary.MaxVarintLen64]byte
	for shift := 0; shift < 64; shift++ {
		for _, x := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := uvarintLen(x), binary.PutUvarint(buf[:], x); got != want {
				t.Errorf("uvarintLen(%d) = %d, encoder writes %d bytes", x, got, want)
			}
		}
	}
}
