package ftl

import (
	"sos/internal/storage"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
)

// wlFTL builds a single-stream FTL with wear leveling on or off.
func wlFTL(t *testing.T, wl bool) *FTL {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 64, PagesPerBlock: 8, Blocks: 16},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     31,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Chip: chip,
		Streams: []StreamPolicy{{
			Name: "all", Mode: flash.NativeMode(flash.PLC),
			Scheme: ecc.None{}, WearLeveling: wl,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// hotColdChurn writes a cold set once, then churns a hot set.
func hotColdChurn(t *testing.T, f *FTL, churn int) {
	t.Helper()
	// Cold data: fills half the device and is never rewritten.
	for lpa := int64(0); lpa < 56; lpa++ {
		if err := f.Write(storage.BatchOp{LPA: lpa, DataLen: 128}); err != nil {
			t.Fatal(err)
		}
	}
	// Hot churn over a small set.
	for i := 0; i < churn; i++ {
		if err := f.Write(storage.BatchOp{LPA: 1000 + int64(i%8), DataLen: 128}); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
	}
}

func wearSpread(f *FTL) (min, max int) {
	min = 1 << 30
	chip := f.Chip()
	for b := 0; b < chip.Blocks(); b++ {
		info, err := chip.Info(b)
		if err != nil {
			continue
		}
		if info.PEC < min {
			min = info.PEC
		}
		if info.PEC > max {
			max = info.PEC
		}
	}
	return min, max
}

func TestStaticWLMovesColdData(t *testing.T) {
	f := wlFTL(t, true)
	hotColdChurn(t, f, 14000)
	if f.Stats().StaticWLMoves == 0 {
		t.Fatal("static wear leveling never ran despite hot/cold skew")
	}
	// Cold data must still be intact.
	for lpa := int64(0); lpa < 56; lpa++ {
		if _, err := f.Read(lpa); err != nil {
			t.Fatalf("cold lpa %d lost: %v", lpa, err)
		}
	}
	if err := checkInvariants(f); err != nil {
		t.Fatal(err)
	}
}

func TestStaticWLNarrowsWearSpread(t *testing.T) {
	fWL := wlFTL(t, true)
	hotColdChurn(t, fWL, 14000)
	minWL, maxWL := wearSpread(fWL)

	fNo := wlFTL(t, false)
	hotColdChurn(t, fNo, 14000)
	minNo, maxNo := wearSpread(fNo)

	spreadWL := maxWL - minWL
	spreadNo := maxNo - minNo
	if spreadWL >= spreadNo {
		t.Fatalf("static WL did not narrow wear spread: %d (WL) vs %d (no WL)", spreadWL, spreadNo)
	}
	// Without WL, cold blocks must stay essentially pristine — the
	// property [73] exploits.
	if minNo > 5 {
		t.Fatalf("no-WL coldest block wore to %d cycles", minNo)
	}
}

func TestNoStaticWLOnUnleveledStream(t *testing.T) {
	f := wlFTL(t, false)
	hotColdChurn(t, f, 14000)
	if f.Stats().StaticWLMoves != 0 {
		t.Fatal("static wear leveling ran on a WL-disabled stream")
	}
}
