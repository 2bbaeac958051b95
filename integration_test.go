package sos_test

import (
	"bytes"
	"errors"
	"testing"

	"sos"
	"sos/internal/classify"
	"sos/internal/core"
	"sos/internal/device"
	"sos/internal/fault"
	"sos/internal/flash"
	"sos/internal/fs"
	"sos/internal/ftl"
	"sos/internal/media"
	"sos/internal/sim"
	"sos/internal/workload"
)

// TestEndToEndMediaLifecycle drives the full stack — workload generator
// through engine, filesystem, device, FTL, ECC, and flash — with real
// media payloads attached to a sample of files, and verifies the SOS
// contract at the end: system data intact, media readable with bounded
// degradation, device wear within budget.
func TestEndToEndMediaLifecycle(t *testing.T) {
	sys, err := sos.New(sos.Config{
		Geometry:      flash.Geometry{PageSize: 4096, Spare: 1024, PagesPerBlock: 16, Blocks: 48},
		Seed:          1234,
		TrainingFiles: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reference image payload attached to every media create the
	// generator emits (if it fits in the file size).
	rng := sim.NewRNG(5)
	img, err := media.Synthetic(rng, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := media.EncodeImage(img, 80)
	if err != nil {
		t.Fatal(err)
	}

	cfg := workload.DefaultPersonalConfig(120)
	cfg.MediaBytes = int64(len(enc))
	cfg.NewMediaPerDay = 2
	cfg.ReadsPerDay = 40
	gen, err := workload.NewPersonal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(gen, core.RunConfig{
		SampleEvery: 20 * sim.Day,
		Horizon:     2 * sim.Year,
		PayloadFor: func(ev workload.Event) []byte {
			if ev.Meta.IsMedia() && ev.Size >= int64(len(enc)) {
				return enc
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 {
		t.Fatal("no events ran")
	}
	if rep.Elapsed < 2*sim.Year {
		t.Fatalf("elapsed %v", rep.Elapsed)
	}

	// Walk surviving files: real media must decode; every read must
	// succeed; degradation only on SPARE-class files.
	var mediaChecked, mediaDecoded, degradedFiles int
	for _, st := range sys.FS.List() {
		id := st.ID
		res, err := sys.FS.Read(id)
		if err != nil {
			t.Fatalf("file %q unreadable: %v", st.Name, err)
		}
		if !st.Real || int64(len(res.Data)) < int64(len(enc)) {
			continue
		}
		mediaChecked++
		if res.DegradedPages > 0 {
			degradedFiles++
		}
		dec, err := media.DecodeImage(res.Data[:len(enc)])
		if err != nil {
			continue // header destroyed: counted as not decoded
		}
		mediaDecoded++
		if p, err := media.PSNR(img, dec); err == nil && p < 10 {
			t.Errorf("file %q decoded at %v dB — beyond 'slight degradation'", st.Name, p)
		}
	}
	if mediaChecked == 0 {
		t.Fatal("no real media survived to check")
	}
	if mediaDecoded == 0 {
		t.Fatal("no media decodable after 2 idle years")
	}
	t.Logf("media: %d checked, %d decoded, %d with degraded pages", mediaChecked, mediaDecoded, degradedFiles)

	// Device-level budget: light use + idle horizon must leave most of
	// the endurance unspent even on SOS silicon. Read it through the
	// unified snapshot, which must agree with the raw SMART query.
	snap := sys.Snapshot()
	smart := snap.Device
	if smart != sys.Device.Smart() {
		t.Fatal("Snapshot().Device disagrees with Device.Smart()")
	}
	if smart.MaxWearFrac > 0.6 {
		t.Fatalf("max wear %.0f%% after a light 120-day life", smart.MaxWearFrac*100)
	}
	// Time-series sanity: wear never shrinks; capacity may oscillate as
	// blocks switch modes between streams but never exceeds the initial
	// advertised value.
	initialCap := rep.CapacityBytes.Points[0].Y
	for i := 1; i < rep.MaxWear.Len(); i++ {
		if rep.MaxWear.Points[i].Y+1e-9 < rep.MaxWear.Points[i-1].Y {
			t.Fatal("max wear series decreased")
		}
		if rep.CapacityBytes.Points[i].Y > initialCap+1 {
			t.Fatal("capacity series exceeded the initial advertisement")
		}
	}
}

// TestSystemDeterminismAcrossStack: identical configs and workloads
// yield bit-identical outcomes across the whole stack.
func TestSystemDeterminismAcrossStack(t *testing.T) {
	run := func() (int64, float64, int64) {
		sys, err := sos.New(sos.Config{
			Geometry:      flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 32},
			Seed:          777,
			TrainingFiles: 1500,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunPersonal(45, sim.Year)
		if err != nil {
			t.Fatal(err)
		}
		ftlStats := sys.Device.FTL().Stats()
		return ftlStats.FlashPrograms, rep.FinalSmart.AvgWearFrac, rep.EngineStats.DegradedReads
	}
	p1, w1, d1 := run()
	p2, w2, d2 := run()
	if p1 != p2 || w1 != w2 || d1 != d2 {
		t.Fatalf("non-deterministic stack: (%d,%v,%d) vs (%d,%v,%d)", p1, w1, d1, p2, w2, d2)
	}
}

// TestClassifierPrefsEndToEnd: the facade's Prefs option changes
// placement outcomes through the whole stack.
func TestClassifierPrefsEndToEnd(t *testing.T) {
	demotions := func(prefs *classify.Prefs) int64 {
		sys, err := sos.New(sos.Config{
			Geometry:      flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 32},
			Seed:          55,
			TrainingFiles: 1500,
			Prefs:         prefs,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunPersonal(40, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.EngineStats.Demoted
	}
	neutral := demotions(nil)
	cautious := demotions(&classify.Prefs{Caution: 0.25})
	if cautious > neutral {
		t.Fatalf("cautious prefs demoted more: %d vs %d", cautious, neutral)
	}
}

// TestQuickstartPayloadSurvives mirrors the quickstart example as a
// regression test: bytes written really land on flash and come back.
func TestQuickstartPayloadSurvives(t *testing.T) {
	sys, err := sos.New(sos.Config{Seed: 7, TrainingFiles: 1500})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x42}, 10000)
	meta := classify.FileMeta{Path: "/sdcard/DCIM/keep.jpg", SizeBytes: 10000, HasFaces: true, Shared: true}
	id, err := sys.Engine.CreateFile(meta, payload, 0, classify.LabelSys)
	if err != nil {
		t.Fatal(err)
	}
	sys.Clock.Advance(2 * sim.Day)
	if _, err := sys.Engine.Review(); err != nil {
		t.Fatal(err)
	}
	sys.Clock.Advance(3 * sim.Year)
	res, err := sys.Engine.ReadFile(id)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := sys.FS.Stat(id)
	if st.Class.String() == "sys" && !bytes.Equal(res.Data, payload) {
		t.Fatal("SYS-protected personal photo corrupted")
	}
}

// TestFaultToleranceSmart drives a fault-planned device end to end and
// asserts the new SMART counters: retries and salvages under a read
// burst, injector telemetry, rebuild counting across power cycles, and
// all-zero counters on a clean device.
func TestFaultToleranceSmart(t *testing.T) {
	geo := flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 16, Blocks: 48}
	dev, err := device.New(device.Config{
		Geometry: geo,
		Tech:     flash.PLC,
		Streams:  device.SOSStreams(),
		Seed:     7,
		Fault:    &fault.Plan{ReadFaultWindow: fault.Window{From: 150, To: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xa5}, 200)
	for lpa := int64(0); lpa < 48; lpa++ {
		class := device.ClassSys
		if lpa%2 == 1 {
			class = device.ClassSpare
		}
		if _, err := dev.Write(device.BatchWrite{LBA: lpa, Data: payload, Class: class}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 12; round++ {
		for lpa := int64(0); lpa < 48; lpa++ {
			res, err := dev.Read(lpa)
			if err != nil {
				// SYS reads may fail transiently during the burst, but
				// the error must stay errors.Is-matchable to the flash
				// sentinel through the device wrapping.
				if !errors.Is(err, flash.ErrReadFault) {
					t.Fatalf("read error lost its sentinel: %v", err)
				}
				continue
			}
			if lpa%2 == 0 && !res.Degraded && res.Data != nil && !bytes.Equal(res.Data, payload) {
				t.Fatalf("silent corruption on SYS lpa %d", lpa)
			}
		}
	}
	s := dev.Smart()
	if s.ReadRetries == 0 {
		t.Error("read burst produced no retries")
	}
	if s.SalvagedReads == 0 {
		t.Error("read burst salvaged nothing")
	}
	if s.Fault.InjectedReadFaults == 0 {
		t.Error("injector telemetry missing from SMART")
	}
	if s.Rebuilds != 0 {
		t.Errorf("rebuilds = %d before any power cycle", s.Rebuilds)
	}

	if err := dev.PowerCycle(); err != nil {
		t.Fatalf("power cycle: %v", err)
	}
	if got := dev.Smart().Rebuilds; got != 1 {
		t.Errorf("rebuilds = %d after power cycle, want 1", got)
	}
	for lpa := int64(0); lpa < 48; lpa += 2 { // SYS data survives the remount
		res, err := dev.Read(lpa)
		if err != nil {
			t.Fatalf("SYS lpa %d lost across power cycle: %v", lpa, err)
		}
		if res.Data != nil && !bytes.Equal(res.Data, payload) {
			t.Fatalf("SYS lpa %d corrupted across power cycle", lpa)
		}
	}

	clean, err := device.NewSOS(geo, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Write(device.BatchWrite{LBA: 1, Data: payload, Class: device.ClassSys}); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Read(1); err != nil {
		t.Fatal(err)
	}
	cs := clean.Smart()
	if cs.ReadRetries != 0 || cs.SalvagedReads != 0 || cs.HardReadFaults != 0 ||
		cs.QuarantinedBlocks != 0 || cs.Rebuilds != 0 || cs.Fault != (fault.Stats{}) {
		t.Errorf("clean device reports fault telemetry: %+v", cs)
	}
}

// TestSentinelPropagation locks in that layer sentinels survive every
// wrapping layer as errors.Is-matchable chains rather than strings.
func TestSentinelPropagation(t *testing.T) {
	geo := flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 8, Blocks: 16}

	// flash.ErrReadFault: injector -> FTL -> device -> fs.
	dev, err := device.New(device.Config{
		Geometry: geo,
		Tech:     flash.PLC,
		Streams:  device.SOSStreams(),
		Seed:     11,
		Fault:    &fault.Plan{ReadFaultProb: 1, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := fs.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fsys.Create("sys.doc", bytes.Repeat([]byte{1}, 900), 0, device.ClassSys)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fsys.Read(id)
	if err == nil {
		t.Fatal("every-read-faults plan let a SYS read through")
	}
	if !errors.Is(err, flash.ErrReadFault) {
		t.Errorf("fs read error does not chain to flash.ErrReadFault: %v", err)
	}

	// ftl.ErrNotFresh surfaces through the Recover convenience.
	f := dev.FTL()
	if err := f.Rebuild(); !errors.Is(err, ftl.ErrNotFresh) {
		t.Errorf("rebuild on used FTL = %v, want ErrNotFresh chain", err)
	}

	// fault.ErrPowerCut chains through FTL writes.
	cut, err := device.New(device.Config{
		Geometry: geo,
		Tech:     flash.PLC,
		Streams:  device.SOSStreams(),
		Seed:     12,
		Fault:    &fault.Plan{PowerCutAtOp: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cut.Write(device.BatchWrite{LBA: 0, Data: []byte("x"), Class: device.ClassSys}); !errors.Is(err, fault.ErrPowerCut) {
		t.Errorf("write during cut = %v, want ErrPowerCut chain", err)
	}
	if err := cut.PowerCycle(); err != nil {
		t.Fatalf("power cycle after cut: %v", err)
	}
	if _, err := cut.Write(device.BatchWrite{LBA: 0, Data: []byte("x"), Class: device.ClassSys}); err != nil {
		t.Errorf("write after restore: %v", err)
	}
}
