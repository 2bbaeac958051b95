package ftl

import (
	"bytes"
	"errors"
	"sos/internal/storage"
	"testing"

	"sos/internal/ecc"
	"sos/internal/fault"
	"sos/internal/flash"
	"sos/internal/sim"
)

// rebuildPair builds a chip and two FTL views over it: the "before
// crash" instance and a constructor for the remounted instance.
func rebuildChip(t *testing.T) (*flash.Chip, func() *FTL) {
	t.Helper()
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 24},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     61,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *FTL {
		pQLC, err := flash.PseudoMode(flash.PLC, 4)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(Config{
			Chip: chip,
			Streams: []StreamPolicy{
				{Name: "sys", Mode: pQLC, Scheme: ecc.MustRSScheme(223, 32), WearLeveling: true},
				{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.DetectOnly{}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return chip, mk
}

func TestRebuildRecoversMappings(t *testing.T) {
	_, mk := rebuildChip(t)
	before := mk()
	payload := func(lpa int64) []byte {
		b := make([]byte, 100)
		for i := range b {
			b[i] = byte(lpa*13 + int64(i))
		}
		return b
	}
	// A mix of streams, overwrites, trims, and accounting pages.
	for lpa := int64(0); lpa < 30; lpa++ {
		stream := StreamID(lpa % 2)
		if err := before.Write(storage.BatchOp{LPA: lpa, Data: payload(lpa), Stream: stream}); err != nil {
			t.Fatal(err)
		}
	}
	for lpa := int64(0); lpa < 10; lpa++ { // overwrite: old copies go stale
		if err := before.Write(storage.BatchOp{LPA: lpa, Data: payload(lpa + 100)}); err != nil {
			t.Fatal(err)
		}
	}
	for lpa := int64(40); lpa < 45; lpa++ { // accounting pages
		if err := before.Write(storage.BatchOp{LPA: lpa, DataLen: 256, Stream: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := before.Trim(25); err != nil {
		t.Fatal(err)
	}

	// "Crash": discard the FTL, remount over the same chip.
	after := mk()
	if err := after.Rebuild(); err != nil {
		t.Fatal(err)
	}

	// Trimmed page stays... trimmed pages were marked stale but their
	// tag remains — rebuild resurrects the newest copy. Real FTLs
	// journal trims; ours documents that trims may be resurrected, so
	// LPA 25 is allowed to reappear. Everything else must match.
	for lpa := int64(0); lpa < 30; lpa++ {
		if lpa == 25 {
			continue
		}
		res, err := after.Read(lpa)
		if err != nil {
			t.Fatalf("lpa %d lost in rebuild: %v", lpa, err)
		}
		want := payload(lpa)
		if lpa < 10 {
			want = payload(lpa + 100) // overwritten version must win
		}
		if !bytes.Equal(res.Data, want) {
			t.Fatalf("lpa %d: wrong copy after rebuild", lpa)
		}
		wantStream := StreamID(lpa % 2)
		if lpa < 10 {
			wantStream = 0
		}
		if got, _ := after.StreamOf(lpa); got != wantStream {
			t.Fatalf("lpa %d stream %d, want %d", lpa, got, wantStream)
		}
	}
	for lpa := int64(40); lpa < 45; lpa++ {
		res, err := after.Read(lpa)
		if err != nil {
			t.Fatalf("accounting lpa %d lost: %v", lpa, err)
		}
		if res.DataLen != 256 {
			t.Fatalf("accounting lpa %d len %d", lpa, res.DataLen)
		}
	}
	if err := checkInvariants(after); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildThenWrite(t *testing.T) {
	_, mk := rebuildChip(t)
	before := mk()
	for lpa := int64(0); lpa < 20; lpa++ {
		if err := before.Write(storage.BatchOp{LPA: lpa, DataLen: 200, Stream: StreamID(lpa % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	after := mk()
	if err := after.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// Continue writing: serials must not collide, GC must work.
	for i := 0; i < 800; i++ {
		if err := after.Write(storage.BatchOp{LPA: int64(i % 25), DataLen: 200, Stream: StreamID(i % 2)}); err != nil {
			if errors.Is(err, ErrNoSpace) {
				break
			}
			t.Fatalf("write %d after rebuild: %v", i, err)
		}
	}
	if err := checkInvariants(after); err != nil {
		t.Fatal(err)
	}
	// Remount a second time: still consistent.
	again := mk()
	if err := again.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(again); err != nil {
		t.Fatal(err)
	}
	if again.MappedPages() != after.MappedPages() {
		t.Fatalf("second rebuild mapped %d pages, live state had %d",
			again.MappedPages(), after.MappedPages())
	}
}

func TestRebuildRequiresFreshFTL(t *testing.T) {
	_, mk := rebuildChip(t)
	f := mk()
	if err := f.Write(storage.BatchOp{LPA: 1, DataLen: 100}); err != nil {
		t.Fatal(err)
	}
	if err := f.Rebuild(); err == nil {
		t.Fatal("rebuild on a used FTL accepted")
	}
}

func TestRebuildEmptyChip(t *testing.T) {
	_, mk := rebuildChip(t)
	f := mk()
	if err := f.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if f.MappedPages() != 0 {
		t.Fatalf("empty chip rebuilt %d mappings", f.MappedPages())
	}
	if f.Stats().FreeBlocks != 24 {
		t.Fatalf("free blocks %d", f.Stats().FreeBlocks)
	}
	// Fully usable afterwards.
	if err := f.Write(storage.BatchOp{LPA: 1, Data: []byte("post-rebuild")}); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildEquivalenceProperty: after ANY random operation sequence,
// a rebuild over the same chip reproduces every live mapping (same
// stream, same length) except trims, which may be resurrected. Run
// across several seeds.
func TestRebuildEquivalenceProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed * 1000)
		chipClock := &sim.Clock{}
		chip, err := flash.NewChip(flash.ChipConfig{
			Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 8, Blocks: 20},
			Tech:     flash.PLC,
			Clock:    chipClock,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *FTL {
			f, err := New(Config{
				Chip: chip,
				Streams: []StreamPolicy{
					{Name: "a", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.None{}},
					{Name: "b", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.DetectOnly{}, WearLeveling: true},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		live := mk()
		type expect struct {
			stream  StreamID
			dataLen int
		}
		want := map[int64]expect{}
		for op := 0; op < 1200; op++ {
			lpa := int64(rng.Intn(40))
			switch rng.Intn(5) {
			case 0, 1, 2:
				stream := StreamID(rng.Intn(2))
				n := 64 + rng.Intn(400)
				err := live.Write(storage.BatchOp{LPA: lpa, DataLen: n, Stream: stream})
				if errors.Is(err, ErrNoSpace) {
					continue
				}
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				want[lpa] = expect{stream: stream, dataLen: n}
			case 3:
				if live.Contains(lpa) {
					if err := live.Trim(lpa); err != nil {
						t.Fatal(err)
					}
					delete(want, lpa)
				}
			case 4:
				_, _ = live.Read(lpa)
			}
		}
		rebuilt := mk()
		if err := rebuilt.Rebuild(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for lpa, ex := range want {
			res, err := rebuilt.Read(lpa)
			if err != nil {
				t.Fatalf("seed %d: lpa %d lost: %v", seed, lpa, err)
			}
			if res.DataLen != ex.dataLen {
				t.Fatalf("seed %d: lpa %d len %d, want %d", seed, lpa, res.DataLen, ex.dataLen)
			}
			if res.Stream != ex.stream {
				t.Fatalf("seed %d: lpa %d stream %d, want %d", seed, lpa, res.Stream, ex.stream)
			}
		}
		if err := checkInvariants(rebuilt); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRebuildPreservesWear(t *testing.T) {
	chip, mk := rebuildChip(t)
	before := mk()
	// Churn to accumulate wear.
	for i := 0; i < 3000; i++ {
		if err := before.Write(storage.BatchOp{LPA: int64(i % 15), DataLen: 200, Stream: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var wearBefore float64
	for b := 0; b < chip.Blocks(); b++ {
		info, _ := chip.Info(b)
		wearBefore += info.WearFrac
	}
	after := mk()
	if err := after.Rebuild(); err != nil {
		t.Fatal(err)
	}
	var wearAfter float64
	for b := 0; b < chip.Blocks(); b++ {
		info, _ := chip.Info(b)
		wearAfter += info.WearFrac
	}
	if wearBefore != wearAfter {
		t.Fatalf("wear changed across rebuild: %v -> %v", wearBefore, wearAfter)
	}
}

// crashStack builds a fault-injected chip with the standard SOS stream
// split and an FTL mounted over the injector.
func crashStack(t *testing.T, plan fault.Plan) (*flash.Chip, *fault.Injector, Config, *FTL) {
	t.Helper()
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 24},
		Tech:     flash.PLC,
		Clock:    &sim.Clock{},
		Seed:     61,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(chip, plan)
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Chip: inj,
		Streams: []StreamPolicy{
			{Name: "sys", Mode: pQLC, Scheme: ecc.MustRSScheme(223, 32), WearLeveling: true},
			{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.DetectOnly{}},
		},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return chip, inj, cfg, f
}

// TestRebuildCrashMidGC cuts power inside the first GC pass (relocation
// and erase in flight) and verifies the remount: invariants hold, every
// acknowledged write survives with its newest acked content (or, under
// a torn cut, the strictly newer in-flight content), and the recovered
// FTL accepts new writes.
func TestRebuildCrashMidGC(t *testing.T) {
	pay := func(lpa, ver int64) []byte {
		b := make([]byte, 120)
		for i := range b {
			b[i] = byte(lpa*37 + ver*11 + int64(i))
		}
		return b
	}
	type wr struct{ lpa, ver int64 }
	var script []wr
	for ver := int64(0); ver < 80; ver++ {
		for lpa := int64(0); lpa < 14; lpa++ {
			script = append(script, wr{lpa: lpa, ver: ver})
		}
	}

	// Dry run: find the chip-op window of the first GC pass.
	_, inj, _, f := crashStack(t, fault.Plan{})
	lo, hi := int64(-1), int64(-1)
	for _, s := range script {
		before := inj.Ops()
		if err := f.Write(storage.BatchOp{LPA: s.lpa, Data: pay(s.lpa, s.ver), Stream: StreamID(s.lpa % 2)}); err != nil {
			t.Fatal(err)
		}
		if f.Stats().GCRuns > 0 {
			lo, hi = before+1, inj.Ops()
			break
		}
	}
	if lo < 0 {
		t.Fatal("script never triggered GC")
	}

	for _, torn := range []bool{false, true} {
		for _, cut := range []int64{lo, lo + (hi-lo)/2, hi} {
			_, inj, cfg, f := crashStack(t, fault.Plan{PowerCutAtOp: cut, TornCut: torn})
			acked := map[int64]int64{}
			pending := map[int64]int64{}
			halted := false
			for _, s := range script {
				pending[s.lpa] = s.ver
				err := f.Write(storage.BatchOp{LPA: s.lpa, Data: pay(s.lpa, s.ver), Stream: StreamID(s.lpa % 2)})
				if err != nil {
					if !errors.Is(err, fault.ErrPowerCut) {
						t.Fatalf("cut %d torn=%v: unexpected error %v", cut, torn, err)
					}
					halted = true
					break
				}
				acked[s.lpa] = s.ver
				delete(pending, s.lpa)
				if inj.Down() {
					halted = true
					break
				}
			}
			if !halted {
				t.Fatalf("cut %d never fired", cut)
			}

			inj.Restore()
			f2, err := Recover(inj, cfg)
			if err != nil {
				t.Fatalf("recover after cut %d torn=%v: %v", cut, torn, err)
			}
			if err := CheckInvariants(f2); err != nil {
				t.Fatalf("invariants after cut %d torn=%v: %v", cut, torn, err)
			}
			for lpa, ver := range acked {
				res, err := f2.Read(lpa)
				if err != nil {
					t.Fatalf("cut %d torn=%v: acked lpa %d lost: %v", cut, torn, lpa, err)
				}
				ok := bytes.Equal(res.Data, pay(lpa, ver))
				if !ok {
					if pv, has := pending[lpa]; has && bytes.Equal(res.Data, pay(lpa, pv)) {
						ok = true // torn in-flight write persisted: strictly newer, legal
					}
				}
				if !ok {
					t.Fatalf("cut %d torn=%v: lpa %d has wrong content after recovery", cut, torn, lpa)
				}
			}
			if err := f2.Write(storage.BatchOp{LPA: 0, Data: pay(0, 999)}); err != nil {
				t.Fatalf("recovered FTL rejects writes: %v", err)
			}
		}
	}
}

// TestRebuildCrashMidResuscitation cuts power (torn) at every chip op
// of the write that performs the FTL's first block resuscitation — the
// erase lands but the mode switch may not — and verifies each remount:
// invariants hold, wear is preserved exactly, acked mappings survive.
func TestRebuildCrashMidResuscitation(t *testing.T) {
	mkStack := func(plan fault.Plan) (*flash.Chip, *fault.Injector, Config, *FTL) {
		t.Helper()
		chip, err := flash.NewChip(flash.ChipConfig{
			Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 8, Blocks: 10},
			Tech:     flash.PLC,
			Clock:    &sim.Clock{},
			Seed:     67,
		})
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.New(chip, plan)
		cfg := Config{
			Chip: inj,
			Streams: []StreamPolicy{{
				Name:   "spare",
				Mode:   flash.NativeMode(flash.PLC),
				Scheme: ecc.DetectOnly{},
				// Tiny retire threshold so blocks hit the resuscitation
				// ladder within a few erase cycles.
				Resuscitate:    []int{3},
				WearRetireFrac: 0.01,
			}},
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return chip, inj, cfg, f
	}
	const lpas = 4
	const maxWrites = 4000

	// Dry run: find the op window of the first resuscitation.
	_, inj, _, f := mkStack(fault.Plan{})
	lo, hi := int64(-1), int64(-1)
	for i := 0; i < maxWrites; i++ {
		before := inj.Ops()
		if err := f.Write(storage.BatchOp{LPA: int64(i % lpas), DataLen: 200}); err != nil {
			t.Fatal(err)
		}
		if f.Stats().Resuscitated > 0 {
			lo, hi = before+1, inj.Ops()
			break
		}
	}
	if lo < 0 {
		t.Fatal("workload never resuscitated a block")
	}

	for cut := lo; cut <= hi; cut++ {
		chip, inj, cfg, f := mkStack(fault.Plan{PowerCutAtOp: cut, TornCut: true})
		acked := map[int64]bool{}
		halted := false
		for i := 0; i < maxWrites && !halted; i++ {
			err := f.Write(storage.BatchOp{LPA: int64(i % lpas), DataLen: 200})
			if err != nil {
				if !errors.Is(err, fault.ErrPowerCut) {
					t.Fatalf("cut %d: unexpected error %v", cut, err)
				}
				halted = true
				break
			}
			acked[int64(i%lpas)] = true
			if inj.Down() {
				halted = true
			}
		}
		if !halted {
			t.Fatalf("cut %d never fired", cut)
		}
		pecAtCrash := 0
		for b := 0; b < chip.Blocks(); b++ {
			info, err := chip.Info(b)
			if err != nil {
				t.Fatal(err)
			}
			pecAtCrash += info.PEC
		}

		inj.Restore()
		f2, err := Recover(inj, cfg)
		if err != nil {
			t.Fatalf("recover after cut %d: %v", cut, err)
		}
		if err := CheckInvariants(f2); err != nil {
			t.Fatalf("invariants after cut %d: %v", cut, err)
		}
		for lpa := range acked {
			if !f2.Contains(lpa) {
				t.Fatalf("cut %d: acked lpa %d lost across mid-resuscitation crash", cut, lpa)
			}
		}
		pecAfter := 0
		for b := 0; b < chip.Blocks(); b++ {
			info, err := chip.Info(b)
			if err != nil {
				t.Fatal(err)
			}
			pecAfter += info.PEC
		}
		if pecAfter != pecAtCrash {
			t.Fatalf("cut %d: rebuild changed wear %d -> %d", cut, pecAtCrash, pecAfter)
		}
		if err := f2.Write(storage.BatchOp{LPA: 0, DataLen: 200}); err != nil {
			t.Fatalf("cut %d: recovered FTL rejects writes: %v", cut, err)
		}
	}
}
