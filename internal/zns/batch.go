package zns

import (
	"sos/internal/datapath"
	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/storage"
)

// Batched multi-queue writes over zones. Zone appends are inherently
// serial — every append advances a shared write pointer — so the batch
// path parallelizes only the ECC encode (per-queue arenas, one worker
// per queue) and then replays the appends in one canonical pass that is
// operation-for-operation identical to calling Write in Seq order.
// Unlike the device-side FTL there is no plane fan-out to guard, so the
// path needs no RunFlash gate: encode is a pure function of the
// bytes, and the chip sees the same serial op sequence as the unbatched
// path at every queue and worker count.

// encSlot is per-op encode bookkeeping: the op's slot in its queue
// arena. n < 0 marks an op rejected by validation; n == 0 marks an
// accounting-only op (nothing to encode).
type encSlot struct {
	off int
	n   int
}

// batchScratch is WriteBatch's reusable state.
type batchScratch struct {
	enc    []encSlot
	stored [][]byte // per-op encoded payload (aliases arenas)
	arenas [][]byte // per-queue encode arenas
	qsize  []int
	fan    datapath.Fan

	// The batch in flight, for the fanned-out encode.
	ops    []storage.BatchOp
	fates  []storage.BatchFate
	queues int
}

// WriteBatch implements storage.Backend. fates[i] records the
// outcome of ops[i]; queues is the submission-queue count the ops were
// dealt across and workers bounds goroutine use. Results are identical
// for every (queues, workers) pair.
func (b *Backend) WriteBatch(ops []storage.BatchOp, fates []storage.BatchFate, queues, workers int) {
	defer b.flushCapacity()
	if len(ops) == 0 {
		return
	}
	queues = max(queues, 1)
	b.ensureBatchScratch(len(ops), queues)

	b.encodeBatch(ops, fates, queues, workers)

	for i := range ops {
		if b.bs.enc[i].n < 0 {
			continue // rejected by validation/encode; fate already set
		}
		op := &ops[i]
		dataLen := op.DataLen
		if op.Data != nil {
			dataLen = len(op.Data)
		}
		var stored []byte
		var storedLen int
		if op.Data != nil {
			stored = b.bs.stored[i]
			storedLen = len(stored)
		} else {
			storedLen = b.dev.pol[b.attrs[op.Stream]].Scheme.Overhead(dataLen)
		}
		// Serial left zero: appendCore stamps it once the destination zone
		// is secured, exactly as the per-op path does.
		tag := flash.PageTag{LPA: op.LPA, Stream: uint8(op.Stream), DataLen: int32(dataLen), Digest: op.Digest, HasDigest: op.HasDigest, Hint: uint8(op.Hint)}
		z, idx, blk, page, err := b.appendStoredToStream(op.Stream, stored, storedLen, dataLen, tag, op.Hint)
		if err != nil {
			fates[i] = storage.BatchFate{Err: err, Block: -1, Page: -1}
			continue
		}
		b.hostWrites++
		if op.Hint != storage.HintNone {
			b.hintedWrites++
		}
		b.install(op.LPA, zmapping{zone: z, idx: idx, stream: op.Stream, dataLen: dataLen, digest: op.Digest, hasDigest: op.HasDigest, hint: op.Hint})
		fates[i] = storage.BatchFate{Block: blk, Page: page}
	}
}

// ensureBatchScratch sizes the reusable scratch for a batch of n ops
// over the given queue count.
func (b *Backend) ensureBatchScratch(n, queues int) {
	bs := &b.bs
	if cap(bs.enc) < n {
		bs.enc = make([]encSlot, n)
	}
	if cap(bs.stored) < n {
		bs.stored = make([][]byte, n)
	}
	if cap(bs.qsize) < queues {
		bs.qsize = make([]int, queues)
	}
	for len(bs.arenas) < queues {
		bs.arenas = append(bs.arenas, nil)
	}
}

// encodeBatch validates every op and runs the encode phase: per-queue
// ECC encode into per-queue arenas, parallel across queues when workers
// allow. Rejected ops get their fate set here and are skipped by the
// append pass. Payloads encode through the zone attribute's scheme —
// the exact bytes the device would produce — so the append can hand the
// device a finished page.
func (b *Backend) encodeBatch(ops []storage.BatchOp, fates []storage.BatchFate, queues, workers int) {
	bs := &b.bs
	enc := bs.enc[:len(ops)]
	stored := bs.stored[:len(ops)]
	qsize := bs.qsize[:queues]
	for q := range qsize {
		qsize[q] = 0
	}
	for i := range ops {
		op := &ops[i]
		fates[i] = storage.BatchFate{Block: -1, Page: -1}
		stored[i] = nil
		if op.Stream < 0 || int(op.Stream) >= len(b.streams) {
			fates[i].Err = storage.ErrUnknownStream
			enc[i] = encSlot{n: -1}
			continue
		}
		if op.LPA < 0 {
			fates[i].Err = storage.ErrBadLPA
			enc[i] = encSlot{n: -1}
			continue
		}
		dataLen := op.DataLen
		if op.Data != nil {
			dataLen = len(op.Data)
		}
		if dataLen <= 0 || dataLen > b.logicalSz {
			fates[i].Err = storage.ErrPayloadSize
			enc[i] = encSlot{n: -1}
			continue
		}
		if op.Data == nil {
			enc[i] = encSlot{n: 0}
			continue
		}
		n := ecc.StoredLen(b.dev.pol[b.attrs[op.Stream]].Scheme, dataLen)
		q := op.Queue
		if q < 0 || q >= queues {
			q = 0
		}
		enc[i] = encSlot{off: qsize[q], n: n}
		qsize[q] += n
	}
	for q := 0; q < queues; q++ {
		if cap(bs.arenas[q]) < qsize[q] {
			bs.arenas[q] = make([]byte, qsize[q])
		}
	}
	bs.ops, bs.fates, bs.queues = ops, fates, queues
	bs.fan.Run((*queueEncodes)(b), queues, workers)
	bs.ops, bs.fates = nil, nil
}

// queueEncodes fans the encode phase out: Do(q) encodes queue q.
type queueEncodes Backend

func (t *queueEncodes) Do(q int) { (*Backend)(t).encodeQueue(q) }

// encodeQueue encodes every payload op of queue q into the queue's
// arena. Each op writes only its own arena span, its own stored slot,
// and its own fate, so queues share nothing.
func (b *Backend) encodeQueue(q int) {
	bs := &b.bs
	arena := bs.arenas[q]
	for i := range bs.ops {
		op := &bs.ops[i]
		oq := op.Queue
		if oq < 0 || oq >= bs.queues {
			oq = 0
		}
		if oq != q || bs.enc[i].n <= 0 {
			continue
		}
		dst := arena[bs.enc[i].off : bs.enc[i].off+bs.enc[i].n]
		sch := b.dev.pol[b.attrs[op.Stream]].Scheme
		stored, err := ecc.EncodeStored(sch, dst, op.Data)
		if err != nil {
			bs.fates[i].Err = err
			bs.enc[i].n = -1
			continue
		}
		bs.stored[i] = stored
	}
}
