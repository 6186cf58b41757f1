package convert

import (
	"fmt"
	"slices"
	"testing"

	"socyield/internal/logic"
	"socyield/internal/mdd"
	"socyield/internal/order"
)

// TestToMDDAfterReleaseTables converts the same coded ROBDD before and
// after bdd.Manager.ReleaseTables and requires the identical ROMDD:
// same root handle, same size, same per-layer work. It also pins that
// the conversion is read-only on the ROBDD side, so it never brings
// the released tables back.
func TestToMDDAfterReleaseTables(t *testing.T) {
	f := logic.New()
	xs := make([]logic.GateID, 6)
	for i := range xs {
		xs[i] = f.Input(fmt.Sprintf("x%d", i+1))
	}
	f.SetOutput(f.Or(f.AtLeast(3, xs[:4]...), f.And(xs[4], xs[5])))
	for _, m := range []int{2, 3} {
		p := buildPipeline(t, f, m, order.MVWeight, order.BitML)
		convertOnce := func() (*mdd.Manager, mdd.Node, Stats) {
			mm := mdd.MustNew(p.spec.Domains)
			var st Stats
			root, err := ToMDDWithStats(p.bm, p.root, mm, p.spec, &st)
			if err != nil {
				t.Fatalf("M=%d: ToMDDWithStats: %v", m, err)
			}
			return mm, root, st
		}
		mm1, r1, st1 := convertOnce()
		p.bm.ReleaseTables()
		mm2, r2, st2 := convertOnce()
		if r1 != r2 {
			t.Errorf("M=%d: root %v after release, want %v", m, r2, r1)
		}
		if s1, s2 := mm1.Size(r1), mm2.Size(r2); s1 != s2 {
			t.Errorf("M=%d: ROMDD size %d after release, want %d", m, s2, s1)
		}
		if st1.SimSteps != st2.SimSteps || !slices.Equal(st1.EntryNodes, st2.EntryNodes) {
			t.Errorf("M=%d: conversion stats %+v after release, want %+v", m, st2, st1)
		}
		if bs := p.bm.Stats(); bs.ApplyCacheSize != 0 || bs.UniqueTableBuckets != 0 {
			t.Errorf("M=%d: conversion rebuilt the ROBDD tables: %+v", m, bs)
		}
	}
}
