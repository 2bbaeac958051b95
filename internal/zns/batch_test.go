package zns

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

// makeBatchOps builds a batch trace: mixed streams, payload and
// accounting-only ops, duplicate LPAs.
func makeBatchOps(seed uint64, n, lpaSpace, queues, pageSize int) []storage.BatchOp {
	rng := sim.NewRNG(seed)
	ops := make([]storage.BatchOp, n)
	for i := 0; i < n; i++ {
		op := storage.BatchOp{
			LPA:    int64(rng.Intn(lpaSpace)),
			Stream: storage.StreamID(rng.Intn(2)),
			Seq:    uint64(i + 1),
			Queue:  sim.DealQueue(i, n, queues),
		}
		if rng.Intn(4) == 0 {
			op.DataLen = 1 + rng.Intn(pageSize)
		} else {
			data := make([]byte, 1+rng.Intn(pageSize))
			for j := range data {
				data[j] = byte(rng.Intn(256))
			}
			op.Data = data
		}
		ops[i] = op
	}
	return ops
}

// znsDigest captures telemetry plus a read-back of the logical space.
func znsDigest(t *testing.T, b *Backend, lpaSpace int) string {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "stats=%+v dev=%+v\n", b.Stats(), b.Device().Stats())
	for lpa := int64(0); lpa < int64(lpaSpace); lpa++ {
		if !b.Contains(lpa) {
			continue
		}
		res, err := b.Read(lpa)
		if err != nil {
			fmt.Fprintf(&buf, "lpa %d: err %v\n", lpa, err)
			continue
		}
		fmt.Fprintf(&buf, "lpa %d: len=%d flips=%d stream=%d degraded=%v data=%x\n",
			lpa, res.DataLen, res.RawFlips, res.Stream, res.Degraded, res.Data)
	}
	return buf.String()
}

// TestZNSWriteBatchMatchesSerial: a batch over zones must leave exactly
// the state of per-op Writes in Seq order, at every queue and worker
// count — appends are serial by construction, so this holds even under
// zone churn.
func TestZNSWriteBatchMatchesSerial(t *testing.T) {
	const lpaSpace = 100
	ops := makeBatchOps(55, 140, lpaSpace, 4, 512)

	serial, _ := testBackend(t, 24, 2)
	serialErrs := make([]error, len(ops))
	for i := range ops {
		serialErrs[i] = serial.Write(storage.BatchOp{LPA: ops[i].LPA, Data: ops[i].Data, DataLen: ops[i].DataLen, Stream: ops[i].Stream})
	}
	want := znsDigest(t, serial, lpaSpace)

	for _, cfg := range [][2]int{{1, 1}, {4, 1}, {4, 4}, {8, 8}} {
		queues, workers := cfg[0], cfg[1]
		batched, _ := testBackend(t, 24, 2)
		bops := make([]storage.BatchOp, len(ops))
		copy(bops, ops)
		for i := range bops {
			bops[i].Queue = sim.DealQueue(i, len(bops), queues)
		}
		fates := make([]storage.BatchFate, len(bops))
		batched.WriteBatch(bops, fates, queues, workers)
		for i := range fates {
			if (fates[i].Err == nil) != (serialErrs[i] == nil) {
				t.Fatalf("q=%d w=%d op %d: fate err %v vs serial %v", queues, workers, i, fates[i].Err, serialErrs[i])
			}
			if fates[i].Err == nil && fates[i].Block < 0 {
				t.Fatalf("q=%d w=%d op %d: success without chip coordinates", queues, workers, i)
			}
		}
		if got := znsDigest(t, batched, lpaSpace); got != want {
			t.Errorf("q=%d w=%d: state diverged from serial\n--- serial ---\n%s\n--- batch ---\n%s", queues, workers, want, got)
		}
	}
}

// TestZNSWriteBatchValidation: rejected ops get their error fate without
// perturbing the rest of the batch.
func TestZNSWriteBatchValidation(t *testing.T) {
	b, _ := testBackend(t, 16, 2)
	good := make([]byte, 64)
	ops := []storage.BatchOp{
		{LPA: 0, Data: good, Stream: 0, Seq: 1, Queue: 0},
		{LPA: -1, Data: good, Stream: 0, Seq: 2, Queue: 0},
		{LPA: 1, Data: good, Stream: 9, Seq: 3, Queue: 0},
		{LPA: 2, DataLen: -5, Stream: 0, Seq: 4, Queue: 0},
		{LPA: 3, Data: good, Stream: 1, Seq: 5, Queue: 0},
	}
	fates := make([]storage.BatchFate, len(ops))
	b.WriteBatch(ops, fates, 2, 2)
	if fates[0].Err != nil || fates[4].Err != nil {
		t.Fatalf("valid ops failed: %v %v", fates[0].Err, fates[4].Err)
	}
	if fates[1].Err != storage.ErrBadLPA {
		t.Errorf("bad LPA: got %v", fates[1].Err)
	}
	if fates[2].Err != storage.ErrUnknownStream {
		t.Errorf("bad stream: got %v", fates[2].Err)
	}
	if fates[3].Err != storage.ErrPayloadSize {
		t.Errorf("bad size: got %v", fates[3].Err)
	}
	if !b.Contains(0) || !b.Contains(3) || b.Contains(1) || b.Contains(2) {
		t.Error("mapping state inconsistent with fates")
	}
}

// alwaysDegraded is DetectOnly whose verification always fails: the
// payload still aliases the stored buffer and the sentinel error marks
// the slice degraded. It drives the batched read path's degraded-SPARE
// decode branch deterministically — the same code a real CRC mismatch
// takes, without depending on the media model's flip schedule.
type alwaysDegraded struct{ ecc.DetectOnly }

func (alwaysDegraded) Decode(stored []byte) ([]byte, int, error) {
	return stored[:len(stored)-4], 0, ecc.ErrUncorrectable
}

func (alwaysDegraded) DecodeInPlace(stored []byte) ([]byte, int, error) {
	return stored[:len(stored)-4], 0, ecc.ErrUncorrectable
}

// TestReadBatchZeroAlloc pins the zone backend's steady-state batched
// read path at zero allocations per batch (workers=1, so no goroutine
// spawns), mirroring the FTL's contract: descriptors, plane index
// lists, read runs, pool buffers, and the retained-buffer lists are all
// reused scratch. The batch mixes the clean aliasing decode, the
// degraded-SPARE decode branch (payload alias + sentinel error), and an
// unmapped LPA (sentinel fate).
func TestReadBatchZeroAlloc(t *testing.T) {
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 64},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     77,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(BackendConfig{
		Chip: chip,
		Streams: []storage.StreamPolicy{
			{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.None{}},
			{Name: "degraded", Mode: flash.NativeMode(flash.PLC), Scheme: alwaysDegraded{}},
		},
		BlocksPerZone: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	for lpa := int64(0); lpa < 24; lpa++ {
		if err := b.Write(storage.BatchOp{LPA: lpa, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for lpa := int64(100); lpa < 124; lpa++ {
		if err := b.Write(storage.BatchOp{LPA: lpa, Data: payload, Stream: 1}); err != nil {
			t.Fatal(err)
		}
	}
	const nOps = 8
	ops := make([]storage.BatchReadOp, nOps)
	fates := make([]storage.BatchReadFate, nOps)
	var seq uint64
	build := func() {
		for i := range ops {
			seq++
			lpa := int64(i % 24) // clean aliasing decode
			switch i % 4 {
			case 1:
				lpa = int64(100 + i%24) // degraded decode branch
			case 3:
				lpa = 9000 // unmapped: sentinel fate, no descriptor
			}
			ops[i] = storage.BatchReadOp{LPA: lpa, Seq: seq, Queue: 0}
		}
	}
	check := func() {
		for i := range fates {
			switch i % 4 {
			case 1:
				if fates[i].Err != nil || !fates[i].Res.Degraded {
					t.Fatalf("op %d: want degraded fate, got err=%v res=%+v", i, fates[i].Err, fates[i].Res)
				}
			case 3:
				if !errors.Is(fates[i].Err, storage.ErrUnknownLPA) {
					t.Fatalf("op %d: want ErrUnknownLPA, got %v", i, fates[i].Err)
				}
			default:
				if fates[i].Err != nil || fates[i].Res.Data == nil {
					t.Fatalf("op %d: want clean payload, got err=%v", i, fates[i].Err)
				}
			}
		}
	}
	// Warm the batch scratch and the plane buffer pools (the first
	// batches grow both; steady state reuses them).
	for k := 0; k < 3; k++ {
		build()
		b.ReadBatch(ops, fates, 1, 1)
		check()
	}
	allocs := testing.AllocsPerRun(50, func() {
		build()
		b.ReadBatch(ops, fates, 1, 1)
	})
	check()
	if allocs != 0 {
		t.Fatalf("steady-state ReadBatch allocates %.1f times per batch, want 0", allocs)
	}
}
