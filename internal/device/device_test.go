package device

import (
	"bytes"
	"errors"
	"testing"

	"sos/internal/flash"
	"sos/internal/sim"
)

func smallGeo() flash.Geometry {
	return flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 32}
}

func testSOS(t *testing.T) (*Device, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	d, err := NewSOS(smallGeo(), 42, clock)
	if err != nil {
		t.Fatal(err)
	}
	return d, clock
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("config without streams accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	d, err := New(Config{Streams: SOSStreams()})
	if err != nil {
		t.Fatal(err)
	}
	if d.PageSize() != 4096 {
		t.Fatalf("default page size %d", d.PageSize())
	}
	if d.Chip().Tech() != flash.PLC {
		t.Fatalf("default tech %v", d.Chip().Tech())
	}
	if d.Clock() == nil {
		t.Fatal("no clock created")
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	d, _ := testSOS(t)
	data := bytes.Repeat([]byte{0x42}, 512)
	lat, err := d.Write(BatchWrite{LBA: 10, Data: data, Class: ClassSys})
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatal("zero write latency")
	}
	res, err := d.Read(10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("roundtrip mismatch")
	}
	if res.Latency <= 0 {
		t.Fatal("zero read latency")
	}
}

func TestBadClassRejected(t *testing.T) {
	d, _ := testSOS(t)
	if _, err := d.Write(BatchWrite{LBA: 0, Data: make([]byte, 8), Class: Class(9)}); !errors.Is(err, ErrBadClass) {
		t.Fatalf("bad class: %v", err)
	}
	if err := d.Reclassify(0, Class(9)); !errors.Is(err, ErrBadClass) {
		t.Fatalf("bad reclassify: %v", err)
	}
}

func TestClassMapping(t *testing.T) {
	d, _ := testSOS(t)
	if _, err := d.Write(BatchWrite{LBA: 1, Data: make([]byte, 8), Class: ClassSys}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(BatchWrite{LBA: 2, Data: make([]byte, 8), Class: ClassSpare}); err != nil {
		t.Fatal(err)
	}
	if c, ok := d.ClassOf(1); !ok || c != ClassSys {
		t.Fatalf("ClassOf(1) = %v, %v", c, ok)
	}
	if c, ok := d.ClassOf(2); !ok || c != ClassSpare {
		t.Fatalf("ClassOf(2) = %v, %v", c, ok)
	}
	if _, ok := d.ClassOf(99); ok {
		t.Fatal("unmapped lba classified")
	}
}

func TestReclassify(t *testing.T) {
	d, _ := testSOS(t)
	data := bytes.Repeat([]byte{7}, 256)
	if _, err := d.Write(BatchWrite{LBA: 5, Data: data, Class: ClassSys}); err != nil {
		t.Fatal(err)
	}
	if err := d.Reclassify(5, ClassSpare); err != nil {
		t.Fatal(err)
	}
	if c, _ := d.ClassOf(5); c != ClassSpare {
		t.Fatalf("class after demote = %v", c)
	}
	// Idempotent: reclassifying to the current class is a no-op.
	st := d.FTL().Stats()
	if err := d.Reclassify(5, ClassSpare); err != nil {
		t.Fatal(err)
	}
	if d.FTL().Stats().GCMoves != st.GCMoves {
		t.Fatal("no-op reclassify moved data")
	}
	res, err := d.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("reclassification corrupted data")
	}
}

func TestBaselineSingleStream(t *testing.T) {
	clock := &sim.Clock{}
	d, err := NewBaseline(flash.TLC, smallGeo(), 7, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Both classes land on the single stream.
	if _, err := d.Write(BatchWrite{LBA: 1, Data: make([]byte, 8), Class: ClassSys}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(BatchWrite{LBA: 2, Data: make([]byte, 8), Class: ClassSpare}); err != nil {
		t.Fatal(err)
	}
	c1, _ := d.ClassOf(1)
	c2, _ := d.ClassOf(2)
	if c1 != c2 {
		t.Fatalf("baseline split classes: %v vs %v", c1, c2)
	}
}

func TestLatencyOrdering(t *testing.T) {
	p := DefaultLatencyProfile()
	plc := flash.NativeMode(flash.PLC)
	tlc := flash.NativeMode(flash.TLC)
	if p.ReadLatency(plc, 0, false) <= p.ReadLatency(tlc, 0, false) {
		t.Fatal("PLC read not slower than TLC")
	}
	if p.ProgramLatency(plc) <= p.ProgramLatency(tlc) {
		t.Fatal("PLC program not slower than TLC")
	}
	// Pseudo-QLC on PLC runs at QLC speed.
	pQLC, _ := flash.PseudoMode(flash.PLC, 4)
	if p.ReadLatency(pQLC, 0, false) != p.ReadLatency(flash.NativeMode(flash.QLC), 0, false) {
		t.Fatal("pseudo-mode latency not governed by operating density")
	}
}

func TestTolerantReadsSkipRetries(t *testing.T) {
	p := DefaultLatencyProfile()
	m := flash.NativeMode(flash.PLC)
	highRBER := flash.EOLRBER * 0.9
	strict := p.ReadLatency(m, highRBER, false)
	tolerant := p.ReadLatency(m, highRBER, true)
	if tolerant >= strict {
		t.Fatalf("tolerant read (%v) not faster than strict (%v) at high RBER", tolerant, strict)
	}
	if tolerant != p.ReadLatency(m, 0, true) {
		t.Fatal("tolerant read latency depends on RBER")
	}
}

func TestRetryLadderMonotone(t *testing.T) {
	prev := -1
	for _, rber := range []float64{0, flash.EOLRBER / 20, flash.EOLRBER / 8, flash.EOLRBER / 3, flash.EOLRBER * 0.8, flash.EOLRBER * 2} {
		r := readRetries(rber, false)
		if r < prev {
			t.Fatalf("retries decreased at rber=%g", rber)
		}
		prev = r
	}
}

func TestCapacityShrinksUnderTorture(t *testing.T) {
	clock := &sim.Clock{}
	d, err := New(Config{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 8},
		Tech:     flash.PLC,
		Streams:  SOSStreams(),
		Clock:    clock,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	initial := d.CapacityBytes()
	var events []int64
	d.OnCapacityChange = func(b int64) { events = append(events, b) }
	data := make([]byte, 64)
	for i := 0; i < 40000; i++ {
		if _, err := d.Write(BatchWrite{LBA: int64(i % 15), Data: data, Class: ClassSpare}); err != nil {
			break
		}
	}
	if d.CapacityBytes() >= initial {
		t.Fatalf("capacity did not shrink: %d -> %d", initial, d.CapacityBytes())
	}
	if len(events) == 0 {
		t.Fatal("capacity events not delivered")
	}
}

func TestSmartTelemetry(t *testing.T) {
	d, _ := testSOS(t)
	for i := 0; i < 20; i++ {
		if _, err := d.Write(BatchWrite{LBA: int64(i), Data: make([]byte, 128), Class: ClassSpare}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := d.Read(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Smart()
	if s.Writes != 20 || s.Reads != 10 {
		t.Fatalf("smart counts: %+v", s)
	}
	if s.BusyTime <= 0 {
		t.Fatal("busy time not accumulated")
	}
	if s.CapacityBytes <= 0 {
		t.Fatal("no capacity reported")
	}
	if s.TotalBlocks != 32 {
		t.Fatalf("total blocks %d", s.TotalBlocks)
	}
}

func TestWearGapSmartMetric(t *testing.T) {
	// The §2.3.2 metric: after a modest workload, PercentLifeUsed must
	// be a small fraction. 32 blocks x 10 pages, write 200 pages spread
	// out: at most a handful of erases against a 400+ cycle budget.
	d, _ := testSOS(t)
	data := make([]byte, 64)
	for i := 0; i < 200; i++ {
		if _, err := d.Write(BatchWrite{LBA: int64(i % 100), Data: data, Class: ClassSpare}); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Smart()
	if s.PercentLifeUsed > 5 {
		t.Fatalf("light workload consumed %.1f%% of life", s.PercentLifeUsed)
	}
}

func TestWearHistogram(t *testing.T) {
	d, _ := testSOS(t)
	s := d.Smart()
	total := 0
	for _, c := range s.WearHistogram {
		total += c
	}
	if total != s.TotalBlocks {
		t.Fatalf("histogram sums to %d, blocks %d", total, s.TotalBlocks)
	}
	// Fresh device: everything in the first bucket.
	if s.WearHistogram[0] != s.TotalBlocks {
		t.Fatalf("fresh device histogram %v", s.WearHistogram)
	}
	// Wear some blocks into higher buckets.
	chip := d.Chip()
	for i := 0; i < 200; i++ { // 50% of PLC's 400 rating
		if err := chip.Erase(0); err != nil {
			t.Fatal(err)
		}
	}
	s = d.Smart()
	if s.WearHistogram[0] == s.TotalBlocks {
		t.Fatal("worn block did not leave bucket 0")
	}
}

func TestClassString(t *testing.T) {
	if ClassSys.String() != "sys" || ClassSpare.String() != "spare" {
		t.Fatal("class names")
	}
	if Class(9).String() != "Class(9)" {
		t.Fatal("unknown class name")
	}
}
