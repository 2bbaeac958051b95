package ftl

import (
	"bytes"
	"fmt"
	"testing"

	"sos/internal/sim"
	"sos/internal/storage"
)

// makeBatch builds a batch op trace: mixed streams, payload and
// accounting-only ops, and deliberate duplicate LPAs (which force run
// splits). Seq/Queue are assigned the way the device layer does.
func makeBatch(seed uint64, n, lpaSpace, queues int, pageSize int) ([]storage.BatchOp, [][]byte) {
	rng := sim.NewRNG(seed)
	ops := make([]storage.BatchOp, n)
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		lpa := int64(rng.Intn(lpaSpace))
		stream := StreamID(rng.Intn(2))
		op := storage.BatchOp{
			LPA: lpa, Stream: stream,
			Seq: uint64(i + 1), Queue: sim.DealQueue(i, n, queues),
		}
		if rng.Intn(4) == 0 {
			op.DataLen = 1 + rng.Intn(pageSize) // accounting-only
		} else {
			data := make([]byte, 1+rng.Intn(pageSize))
			for j := range data {
				data[j] = byte(rng.Intn(256))
			}
			op.Data = data
			payloads[i] = data
		}
		ops[i] = op
	}
	return ops, payloads
}

// applySerial replays a batch through the one-op-at-a-time Write path.
func applySerial(t *testing.T, f *FTL, ops []storage.BatchOp) []error {
	t.Helper()
	errs := make([]error, len(ops))
	for i := range ops {
		errs[i] = f.Write(storage.BatchOp{LPA: ops[i].LPA, Data: ops[i].Data, DataLen: ops[i].DataLen, Stream: ops[i].Stream})
	}
	return errs
}

// ftlStateDigest captures everything observable about an FTL for
// equality checks: telemetry, chip counters, and a read-back of the
// whole logical space.
func ftlStateDigest(t *testing.T, f *FTL, lpaSpace int) string {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "stats=%+v\n", f.Stats())
	for lpa := int64(0); lpa < int64(lpaSpace); lpa++ {
		if !f.Contains(lpa) {
			continue
		}
		res, err := f.Read(lpa)
		if err != nil {
			fmt.Fprintf(&buf, "lpa %d: err %v\n", lpa, err)
			continue
		}
		fmt.Fprintf(&buf, "lpa %d: len=%d flips=%d stream=%d degraded=%v data=%x\n",
			lpa, res.DataLen, res.RawFlips, res.Stream, res.Degraded, res.Data)
	}
	return buf.String()
}

// TestWriteBatchMatchesSerial: on a healthy chip a batch is
// semantically one Write per op in Seq order — final state (mappings,
// payloads, flip counts, telemetry) must match the serial path exactly,
// at every queue and worker count.
func TestWriteBatchMatchesSerial(t *testing.T) {
	const lpaSpace = 120
	ops, _ := makeBatch(99, 160, lpaSpace, 4, 512)

	serial, _ := testFTL(t, 64)
	serialErrs := applySerial(t, serial, ops)
	want := ftlStateDigest(t, serial, lpaSpace)

	for _, cfg := range [][2]int{{1, 1}, {4, 1}, {4, 4}, {8, 8}} {
		queues, workers := cfg[0], cfg[1]
		batched, _ := testFTL(t, 64)
		// Re-deal queues for this queue count.
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
			if fates[i].Err == nil {
				ppa, _, _, ok := batched.Locate(bops[i].LPA)
				if ok && (ppa.Block != fates[i].Block || ppa.Page != fates[i].Page) {
					// A later duplicate LPA may have remapped it; only the
					// last write of an LPA must agree with Locate.
					last := true
					for j := i + 1; j < len(bops); j++ {
						if bops[j].LPA == bops[i].LPA {
							last = false
							break
						}
					}
					if last {
						t.Fatalf("q=%d w=%d op %d: fate (%d,%d) but mapping (%d,%d)",
							queues, workers, i, fates[i].Block, fates[i].Page, ppa.Block, ppa.Page)
					}
				}
			}
		}
		if got := ftlStateDigest(t, batched, lpaSpace); got != want {
			t.Errorf("q=%d w=%d: state diverged from serial\n--- serial ---\n%s\n--- batch ---\n%s", queues, workers, want, got)
		}
	}
}

// TestWriteBatchDeterministicAcrossConcurrency runs the batched path
// under sustained GC pressure (runs split, head ops take the slow
// serial path) and requires the final state to be identical at every
// (queues, workers) pair — the core tentpole guarantee.
func TestWriteBatchDeterministicAcrossConcurrency(t *testing.T) {
	const lpaSpace = 60
	run := func(queues, workers int) string {
		f, _ := testFTL(t, 24) // small: GC pressure
		var digest string
		for round := 0; round < 6; round++ {
			ops, _ := makeBatch(uint64(1000+round), 80, lpaSpace, queues, 512)
			fates := make([]storage.BatchFate, len(ops))
			f.WriteBatch(ops, fates, queues, workers)
			if _, err := f.Scrub(8); err != nil {
				t.Fatal(err)
			}
		}
		digest = ftlStateDigest(t, f, lpaSpace)
		return digest
	}
	want := run(1, 1)
	for _, cfg := range [][2]int{{2, 2}, {4, 4}, {8, 3}} {
		if got := run(cfg[0], cfg[1]); got != want {
			t.Errorf("queues=%d workers=%d diverged from 1/1", cfg[0], cfg[1])
		}
	}
}

// TestWriteBatchHammer drives batches with internal fan-out while GC,
// static wear leveling, scrub, and stats readers all run on the same
// device — under -race (make verify-race) this is the lock-discipline
// proof for the plane workers against the serial phases.
func TestWriteBatchHammer(t *testing.T) {
	f, _ := testFTL(t, 24)
	const lpaSpace = 70
	for round := 0; round < 12; round++ {
		ops, _ := makeBatch(uint64(7000+round), 90, lpaSpace, 8, 512)
		fates := make([]storage.BatchFate, len(ops))
		f.WriteBatch(ops, fates, 8, 8)
		for i := range fates {
			if fates[i].Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, fates[i].Err)
			}
		}
		if round%3 == 0 {
			if _, err := f.Scrub(16); err != nil {
				t.Fatal(err)
			}
		}
		_ = f.Stats()
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Error("hammer never triggered GC; shrink the geometry")
	}
	if st.HostWrites == 0 || st.FlashPrograms == 0 {
		t.Errorf("no work recorded: %+v", st)
	}
}
