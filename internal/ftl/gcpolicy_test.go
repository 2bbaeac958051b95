package ftl

import (
	"sos/internal/storage"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
)

// gcFTL builds a single-stream FTL with an explicit GC policy.
func gcFTL(t *testing.T, policy GCPolicy) *FTL {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 64, PagesPerBlock: 8, Blocks: 16},
		Tech:     flash.TLC,
		Clock:    clock,
		Seed:     17,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Chip: chip,
		Streams: []StreamPolicy{{
			Name: "all", Mode: flash.NativeMode(flash.TLC),
			Scheme: ecc.None{}, WearLeveling: true, GC: policy,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// skewedChurn drives a hot/cold update mix and returns write
// amplification.
func skewedChurn(t *testing.T, f *FTL, writes int) float64 {
	t.Helper()
	rng := sim.NewRNG(23)
	// 80 live LPAs; 80% of updates hit 10 of them.
	for lpa := int64(0); lpa < 80; lpa++ {
		if err := f.Write(storage.BatchOp{LPA: lpa, DataLen: 128}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < writes; i++ {
		var lpa int64
		if rng.Bool(0.8) {
			lpa = rng.Int63n(10)
		} else {
			lpa = 10 + rng.Int63n(70)
		}
		if err := f.Write(storage.BatchOp{LPA: lpa, DataLen: 128}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	return f.WriteAmplification()
}

func TestGCPolicyString(t *testing.T) {
	if GCAuto.String() != "auto" || GCGreedy.String() != "greedy" || GCCostBenefit.String() != "cost-benefit" {
		t.Fatal("policy names")
	}
	if GCPolicy(9).String() != "GCPolicy(9)" {
		t.Fatal("unknown policy name")
	}
}

func TestGCPoliciesBothComplete(t *testing.T) {
	// Both policies must sustain the skewed workload; their WA may
	// differ but both stay bounded.
	for _, p := range []GCPolicy{GCGreedy, GCCostBenefit} {
		f := gcFTL(t, p)
		wa := skewedChurn(t, f, 6000)
		if wa < 1 || wa > 20 {
			t.Fatalf("%v: write amplification %v out of bounds", p, wa)
		}
		if err := checkInvariants(f); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
}

func TestGCAutoFollowsWearLeveling(t *testing.T) {
	// GCAuto on a WL stream and explicit cost-benefit must choose the
	// same victims given identical traffic (same seed => same WA).
	a := gcFTL(t, GCAuto)
	b := gcFTL(t, GCCostBenefit)
	waA := skewedChurn(t, a, 4000)
	waB := skewedChurn(t, b, 4000)
	if waA != waB {
		t.Fatalf("GCAuto (%v) diverged from cost-benefit (%v) on a WL stream", waA, waB)
	}
}
