package ftl

import (
	"errors"
	"sos/internal/storage"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
)

// tortureFTL builds a tiny single-stream PLC FTL for wear-out testing.
func tortureFTL(t *testing.T, blocks int, resuscitate []int) *FTL {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 64, PagesPerBlock: 8, Blocks: blocks},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     123,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Chip: chip,
		Streams: []StreamPolicy{{
			Name: "spare", Mode: flash.NativeMode(flash.PLC),
			Scheme: ecc.None{}, Resuscitate: resuscitate,
			// Run blocks past their rating so the hard-failure path
			// is actually exercised.
			WearRetireFrac: 1.5,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestProgramFailureAbsorbed(t *testing.T) {
	// Write far past total endurance: the FTL must absorb every
	// program/erase failure by sealing/retiring blocks — the host only
	// ever sees success or ErrNoSpace.
	f := tortureFTL(t, 8, nil)
	var firstErr error
	writes := 0
	for i := 0; i < 100000; i++ {
		err := f.Write(storage.BatchOp{LPA: int64(i % 12), DataLen: 128})
		if err != nil {
			firstErr = err
			break
		}
		writes++
	}
	if firstErr != nil && !errors.Is(firstErr, ErrNoSpace) {
		t.Fatalf("host saw a non-space error after %d writes: %v", writes, firstErr)
	}
	st := f.Stats()
	chipStats := f.Chip().Stats()
	if chipStats.ProgFails == 0 && chipStats.EraseFails == 0 {
		t.Skipf("no hard failures occurred in %d writes; torture too light", writes)
	}
	if chipStats.ProgFails > 0 && st.ProgFailures == 0 {
		t.Fatal("chip program failures not recorded by the FTL")
	}
	if st.Retired == 0 {
		t.Fatal("hard failures retired no blocks")
	}
	if err := checkInvariants(f); err != nil {
		t.Fatal(err)
	}
}

func TestFailedBlockDrained(t *testing.T) {
	// After heavy wear, data on sealed/failed blocks must remain
	// readable: GC drains them with priority.
	f := tortureFTL(t, 8, nil)
	payload := func(lpa int64) []byte {
		b := make([]byte, 64)
		for i := range b {
			b[i] = byte(lpa + int64(i))
		}
		return b
	}
	// Durable set.
	for lpa := int64(0); lpa < 6; lpa++ {
		if err := f.Write(storage.BatchOp{LPA: lpa, Data: payload(lpa)}); err != nil {
			t.Fatal(err)
		}
	}
	// Churn until failures appear or budget ends.
	for i := 0; i < 60000; i++ {
		if err := f.Write(storage.BatchOp{LPA: 100 + int64(i%6), DataLen: 128}); err != nil {
			break
		}
	}
	// Every durable page must still be mapped and readable, possibly
	// degraded but never lost.
	for lpa := int64(0); lpa < 6; lpa++ {
		res, err := f.Read(lpa)
		if err != nil {
			t.Fatalf("lpa %d lost after wear-out churn: %v", lpa, err)
		}
		if res.DataLen != 64 {
			t.Fatalf("lpa %d length %d", lpa, res.DataLen)
		}
	}
	if err := checkInvariants(f); err != nil {
		t.Fatal(err)
	}
}

func TestEraseFailureRetiresBlock(t *testing.T) {
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 64, PagesPerBlock: 4, Blocks: 2},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cycle block 0 far past rating until an erase fails.
	sawFailure := false
	for i := 0; i < 2000; i++ {
		if err := chip.Erase(0); errors.Is(err, flash.ErrEraseFail) {
			sawFailure = true
			break
		}
	}
	if !sawFailure {
		t.Fatal("no erase failure in 2000 cycles at 5x rating")
	}
	if chip.Stats().EraseFails == 0 {
		t.Fatal("erase failure not counted")
	}
}

func TestFailureProbShape(t *testing.T) {
	em := flash.DefaultErrorModel()
	m := flash.NativeMode(flash.PLC)
	if p := em.FailureProb(m, m.RatedPEC(), 1); p != 0 {
		t.Fatalf("failure probability %v at rated wear, want 0", p)
	}
	p15 := em.FailureProb(m, m.RatedPEC()*3/2, 1)
	p20 := em.FailureProb(m, m.RatedPEC()*2, 1)
	if !(p15 > 0 && p20 > p15) {
		t.Fatalf("failure probability not ramping: %v, %v", p15, p20)
	}
	if p := em.FailureProb(m, m.RatedPEC()*100, 1); p > 0.5 {
		t.Fatalf("failure probability uncapped: %v", p)
	}
}

func TestProgramFailurePreservesOldData(t *testing.T) {
	// A failed overwrite must not destroy the previous version: the
	// L2P mapping only moves after a successful program.
	f := tortureFTL(t, 8, nil)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := f.Write(storage.BatchOp{LPA: 1, Data: want}); err != nil {
		t.Fatal(err)
	}
	// Overwrite many times; some attempts may internally retry across
	// program failures once blocks wear.
	for i := 0; i < 30000; i++ {
		if err := f.Write(storage.BatchOp{LPA: 1, Data: want}); err != nil {
			break
		}
	}
	res, err := f.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataLen != len(want) {
		t.Fatalf("mapping lost: len %d", res.DataLen)
	}
}
