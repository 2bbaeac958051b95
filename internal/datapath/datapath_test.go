package datapath

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

// Streams of the fake backend.
const (
	plainStream   storage.StreamID = iota // ecc.None
	detectStream                          // ecc.DetectOnly
	hammingStream                         // ecc.HammingScheme: 8-byte padding
	rsStream                              // RS, in-place decode
)

var errNoSuchPage = errors.New("fake: no such page")

// fakeResolver is a minimal backend over a real chip: a map from LPA to
// location, with its own error prefix and telemetry. It lets the engine
// contract be tested without either production backend in the way.
type fakeResolver struct {
	chip     *flash.Chip
	schemes  []ecc.Scheme
	locs     map[int64]Loc
	settled  []int64 // LPAs in settle order
	degraded int64
	serial   atomic.Int64 // serial Read calls
}

func newFake(t testing.TB, planes int) *fakeResolver {
	t.Helper()
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 8, Blocks: 32},
		Tech:     flash.SLC,
		Clock:    &sim.Clock{},
		Seed:     7,
		Planes:   planes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fakeResolver{
		chip:    chip,
		schemes: []ecc.Scheme{ecc.None{}, ecc.DetectOnly{}, ecc.HammingScheme{}, ecc.MustRSScheme(223, 32)},
		locs:    map[int64]Loc{},
	}
}

// put programs lpa at (block, page): a payload when data is non-nil,
// an accounting-only page of dataLen bytes otherwise.
func (r *fakeResolver) put(t testing.TB, lpa int64, block, page int, id storage.StreamID, data []byte, dataLen, baseFlips int) {
	t.Helper()
	s := r.schemes[id]
	var stored []byte
	storedLen := s.Overhead(dataLen)
	if data != nil {
		var err error
		if stored, err = ecc.EncodeStored(s, nil, data); err != nil {
			t.Fatal(err)
		}
		dataLen, storedLen = len(data), len(stored)
	}
	if err := r.chip.Program(block, page, stored, storedLen); err != nil {
		t.Fatal(err)
	}
	r.locs[lpa] = Loc{Block: block, Page: page, Stream: id, DataLen: dataLen, BaseFlips: baseFlips}
}

func (r *fakeResolver) Resolve(lpa int64) (Loc, error) {
	loc, ok := r.locs[lpa]
	if !ok {
		return Loc{}, errNoSuchPage
	}
	return loc, nil
}

func (r *fakeResolver) Scheme(id storage.StreamID) ecc.Scheme { return r.schemes[id] }

func (r *fakeResolver) ReadError(lpa int64, loc *Loc, err error) error {
	return fmt.Errorf("fake: read lpa %d: %w", lpa, err)
}

func (r *fakeResolver) Settled(lpa int64, loc *Loc, degraded bool) {
	r.settled = append(r.settled, lpa)
	if degraded {
		r.degraded++
	}
}

func (r *fakeResolver) Read(lpa int64) (storage.ReadResult, error) {
	r.serial.Add(1)
	return storage.ReadResult{}, errors.New("fake: serial path")
}

func payload(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7)
	}
	return p
}

// TestReadsContract drives the engine through the paths no backend test
// reaches directly, at several (queues, workers) settings.
func TestReadsContract(t *testing.T) {
	for _, qw := range [][2]int{{1, 1}, {2, 1}, {4, 8}} {
		queues, workers := qw[0], qw[1]
		t.Run(fmt.Sprintf("q%d_w%d", queues, workers), func(t *testing.T) {
			r := newFake(t, 4)
			plain := payload(300, 1)
			odd := payload(13, 2) // Hamming pads it to 16 bytes
			dense := payload(500, 3)
			r.put(t, 10, 0, 0, plainStream, plain, 0, 0)
			r.put(t, 11, 1, 0, hammingStream, odd, 0, 0)
			r.put(t, 12, 2, 0, rsStream, dense, 0, 0)
			r.put(t, 13, 3, 0, plainStream, nil, 256, 0)     // accounting, clean verdict
			r.put(t, 14, 3, 1, detectStream, nil, 256, 40)   // accounting, degraded verdict
			r.locs[15] = Loc{Block: 4, Page: 5, DataLen: 64} // mapped, never programmed

			ops := []storage.BatchReadOp{
				{LPA: 10, Queue: queues + 3}, // outside [0, queues): decodes on queue 0
				{LPA: 11, Queue: -1},         // likewise
				{LPA: 12, Queue: queues - 1},
				{LPA: 99, Queue: 0}, // resolve error
				{LPA: 13, Queue: 0},
				{LPA: 14, Queue: 0},
				{LPA: 15, Queue: 0}, // media error
			}
			fates := make([]storage.BatchReadFate, len(ops))
			var e Reads
			e.Run(r.chip, r, ops, fates, queues, workers)

			for i, want := range [][]byte{plain, odd, dense} {
				f := fates[i]
				if f.Err != nil || f.Res.Degraded || !bytes.Equal(f.Res.Data, want) {
					t.Errorf("op %d: got err=%v degraded=%v data len %d, want the %d-byte payload",
						i, f.Err, f.Res.Degraded, len(f.Res.Data), len(want))
				}
				if loc := r.locs[ops[i].LPA]; f.Block != loc.Block || f.Page != loc.Page {
					t.Errorf("op %d: fate at (%d,%d), want (%d,%d)", i, f.Block, f.Page, loc.Block, loc.Page)
				}
			}
			if f := fates[3]; !errors.Is(f.Err, errNoSuchPage) || f.Block != -1 || f.Page != -1 {
				t.Errorf("resolve error: fate %+v, want errNoSuchPage at (-1,-1)", f)
			}
			if f := fates[4]; f.Err != nil || f.Res.Degraded || f.Res.Data != nil || f.Res.DataLen != 256 {
				t.Errorf("clean accounting page: fate %+v", f)
			}
			if f := fates[5]; f.Err != nil || !f.Res.Degraded || f.Res.RawFlips < 40 {
				t.Errorf("degraded accounting page: fate %+v, want the DetectOnly EstimateDecode verdict", f)
			}
			if f := fates[6]; !errors.Is(f.Err, flash.ErrNotWritten) || !strings.HasPrefix(f.Err.Error(), "fake: read lpa 15: ") {
				t.Errorf("media error: got %v, want the resolver's wrap of flash.ErrNotWritten", f.Err)
			}
			if want := []int64{10, 11, 12, 13, 14}; fmt.Sprint(r.settled) != fmt.Sprint(want) || r.degraded != 1 {
				t.Errorf("settled %v (degraded %d), want %v in canonical order with 1 degraded", r.settled, r.degraded, want)
			}
			if r.serial.Load() != 0 {
				t.Error("run-capable medium took the serial path")
			}
		})
	}
}

// TestReadsSerialFallback checks that a medium without runs sends every
// op through the backend's serial Read, with fate locations from
// Resolve.
func TestReadsSerialFallback(t *testing.T) {
	r := newFake(t, 1)
	r.put(t, 1, 0, 0, plainStream, payload(64, 1), 0, 0)
	ops := []storage.BatchReadOp{{LPA: 1}, {LPA: 2}}
	fates := make([]storage.BatchReadFate, len(ops))
	var e Reads
	e.Run(nil, r, ops, fates, 2, 2)
	if r.serial.Load() != 2 || fates[0].Block != 0 || fates[1].Block != -1 || fates[0].Err == nil {
		t.Fatalf("serial fallback: %d serial reads, fates %+v", r.serial.Load(), fates)
	}
}

// TestReadsZeroAlloc pins the steady-state engine — resolve, plane
// runs, queue decodes, settle — at zero allocations per batch with real
// fan-out (queues=4, workers=8 over 4 planes).
func TestReadsZeroAlloc(t *testing.T) {
	r := newFake(t, 4)
	const n = 16
	for i := 0; i < n; i++ {
		r.put(t, int64(i), i, 0, storage.StreamID(i%4), payload(200+i, byte(i)), 0, 0)
	}
	ops := make([]storage.BatchReadOp, n)
	for i := range ops {
		ops[i] = storage.BatchReadOp{LPA: int64(i), Seq: uint64(i), Queue: sim.DealQueue(i, n, 4)}
	}
	fates := make([]storage.BatchReadFate, n)
	var e Reads
	run := func() {
		r.settled = r.settled[:0]
		e.Run(r.chip, r, ops, fates, 4, 8)
	}
	for k := 0; k < 3; k++ { // warm scratch, plane pools, and goroutines
		run()
	}
	for i := range fates {
		if fates[i].Err != nil || fates[i].Res.Data == nil {
			t.Fatalf("op %d: %+v", i, fates[i])
		}
	}
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state Reads.Run allocates %.1f times per batch, want 0", allocs)
	}
}

// countTask records which items ran, and on how many distinct calls.
type countTask struct{ hits []atomic.Int32 }

func (c *countTask) Do(i int) { c.hits[i].Add(1) }

// TestFanRunsEveryItemOnce covers the fan-out helper's edge cases:
// more workers than items, fewer, none, and zero items.
func TestFanRunsEveryItemOnce(t *testing.T) {
	var f Fan
	for _, tc := range [][2]int{{0, 4}, {1, 8}, {5, 2}, {8, 8}, {3, 0}, {7, -1}} {
		n, workers := tc[0], tc[1]
		c := &countTask{hits: make([]atomic.Int32, n)}
		f.Run(c, n, workers)
		for i := range c.hits {
			if got := c.hits[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: item %d ran %d times", n, workers, i, got)
			}
		}
	}
}
