package datapath

import (
	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/storage"
)

// Batched multi-queue reads. Reads.Run is semantically one serial Read
// per op in submission (Seq) order, restructured so the expensive parts
// run concurrently without perturbing any result:
//
//	resolve: one serial pass in canonical order maps every LPA through
//	         the backend's Resolver and sizes a chip-pool destination
//	         buffer per mapped op
//	read:    per-plane workers execute the resolved reads, one whole-
//	         plane run per lock acquisition, each plane's ops in
//	         canonical order so the plane RNG draws (error injection)
//	         and disturb counters advance exactly as serial reads would
//	decode:  per-queue ECC decode, in place within the chip-owned
//	         buffers (parallel across queues; output depends only on
//	         the bytes, not on scheduling)
//	settle:  one serial pass in canonical order builds each op's result
//	         and hands it to the backend's telemetry, exactly as its
//	         serial Read would have
//
// Reads mutate no mapping state, so there is no placement phase and no
// slow-path fallback mid-batch; the only state reads advance — per-plane
// RNG streams, read-disturb counters, the backend's read telemetry — is
// confined to the read and settle phases, both of which run in canonical
// per-plane / global order. The structure is identical at every queue
// and worker count; those only change wall-clock time.

// Loc is where a mapped logical page lives and what reading it needs.
type Loc struct {
	Block, Page int
	Stream      storage.StreamID
	// DataLen is the logical payload length; BaseFlips the degradation
	// crystallized across relocations of accounting-only pages.
	DataLen, BaseFlips int
}

// Resolver is a backend's side of the batched read: its mapping lookup,
// its schemes, and its read bookkeeping. Everything else — buffers,
// runs, decode, result building — is the engine's.
type Resolver interface {
	// Resolve maps a logical page to its physical location. The error
	// becomes the op's fate as is (storage.ErrUnknownLPA for unmapped
	// pages).
	Resolve(lpa int64) (Loc, error)
	// Scheme returns the ECC scheme pages of stream id are stored under.
	Scheme(id storage.StreamID) ecc.Scheme
	// ReadError wraps a media error reading lpa at loc with the error
	// prefix the backend's serial Read uses.
	ReadError(lpa int64, loc *Loc, err error) error
	// Settled records one settled read in the backend's telemetry: its
	// read event and, when degraded, its degraded-read count.
	Settled(lpa int64, loc *Loc, degraded bool)
	// Read is the backend's serial per-op read, which the batch falls
	// back to when the medium cannot execute runs.
	Read(lpa int64) (storage.ReadResult, error)
}

// readDesc is one resolved read, recorded in the resolve phase,
// executed in the read phase, decoded, then settled.
type readDesc struct {
	opIdx   int
	lpa     int64
	loc     Loc
	storedN int // stored (encoded) length, for buffer sizing
	runPos  int32

	dst []byte // chip-pool destination, retained until the next batch

	// Read-phase outcome.
	raw  flash.ReadResult
	rerr error

	// Decode-phase outcome.
	data      []byte
	corrected int
	derr      error
}

// Reads is the batched read engine's reusable state; a backend keeps
// one and calls Run from its ReadBatch. Steady-state batches allocate
// nothing: descriptors, plane index lists, read runs, pool buffers,
// and the retained-buffer lists are all reused.
//
// Returned payloads alias chip-pool buffers the engine retains; they
// stay valid until the next Run returns them to their plane's pool.
type Reads struct {
	descs    []readDesc
	planeIdx [][]int32        // per-plane descriptor index lists
	planeOps [][]flash.ReadOp // per-plane read-run scratch
	sizes    []int            // buffer-take scratch
	bufs     [][]byte         // buffer-take scratch
	ret      [][][]byte       // per-plane buffers retained for the caller
	fan      Fan

	// The batch in flight, for the fanned-out phases.
	rf     storage.RunFlash
	r      Resolver
	ops    []storage.BatchReadOp
	queues int
}

// Run reads ops through the backend r resolves for, over medium rf, and
// records ops[i]'s outcome in fates[i]: the ReadBatch contract of
// storage.Backend. queues is the submission-queue count the ops were
// dealt across and workers bounds goroutine use; results are identical
// for every (queues, workers) pair. A nil rf (a medium without runs)
// sends every op through r.Read in canonical order.
func (e *Reads) Run(rf storage.RunFlash, r Resolver, ops []storage.BatchReadOp, fates []storage.BatchReadFate, queues, workers int) {
	if len(ops) == 0 {
		return
	}
	if rf == nil {
		for i := range ops {
			fates[i] = storage.BatchReadFate{Block: -1, Page: -1}
			if loc, err := r.Resolve(ops[i].LPA); err == nil {
				fates[i].Block, fates[i].Page = loc.Block, loc.Page
			}
			fates[i].Res, fates[i].Err = r.Read(ops[i].LPA)
		}
		return
	}
	planes := rf.Planes()
	e.grow(len(ops), planes)
	e.release(rf)
	e.rf, e.r, e.ops, e.queues = rf, r, ops, max(queues, 1)

	e.resolve(fates)
	e.group(planes)
	if len(e.descs) > 0 {
		e.fan.Run((*planeReads)(e), planes, workers)
		e.fan.Run((*queueDecodes)(e), e.queues, workers)
	}
	e.settle(fates)
	e.rf, e.r, e.ops = nil, nil, nil
}

// grow sizes the reusable scratch for a batch of n ops over a medium
// with the given plane count.
func (e *Reads) grow(n, planes int) {
	if cap(e.descs) < n {
		e.descs = make([]readDesc, 0, n)
	}
	if cap(e.sizes) < n {
		e.sizes = make([]int, n)
		e.bufs = make([][]byte, n)
	}
	for len(e.planeIdx) < planes {
		e.planeIdx = append(e.planeIdx, nil)
		e.planeOps = append(e.planeOps, nil)
		e.ret = append(e.ret, nil)
	}
}

// release returns the previous batch's retained destination buffers to
// their plane pools — the point at which the previous batch's returned
// payloads stop being valid.
func (e *Reads) release(rf storage.RunFlash) {
	for p := range e.ret {
		if len(e.ret[p]) == 0 {
			continue
		}
		rf.ReturnProgramBufs(p, e.ret[p])
		clear(e.ret[p])
		e.ret[p] = e.ret[p][:0]
	}
}

// resolve looks up every op in canonical order. Ops that fail to
// resolve get their final fate here; the rest get a descriptor carrying
// everything later phases need, so they never touch the backend's
// mapping tables concurrently.
func (e *Reads) resolve(fates []storage.BatchReadFate) {
	e.descs = e.descs[:0]
	for i := range e.ops {
		lpa := e.ops[i].LPA
		fates[i] = storage.BatchReadFate{Block: -1, Page: -1}
		loc, err := e.r.Resolve(lpa)
		if err != nil {
			fates[i].Err = err
			continue
		}
		fates[i].Block, fates[i].Page = loc.Block, loc.Page
		e.descs = append(e.descs, readDesc{
			opIdx: i, lpa: lpa, loc: loc, runPos: -1,
			storedN: ecc.StoredLen(e.r.Scheme(loc.Stream), loc.DataLen),
		})
	}
}

// group buckets the descriptors by owning plane — each bucket keeps
// canonical (Seq) order, which is what makes per-plane RNG draws
// identical to serial reads — and hands each descriptor a chip-owned
// destination buffer from its plane's pool, one locked call per plane.
// Accounting-only pages leave theirs unused; every buffer is retained
// until the next batch, so decoded payloads stay valid in between.
func (e *Reads) group(planes int) {
	pidx := e.planeIdx[:planes]
	for p := range pidx {
		pidx[p] = pidx[p][:0]
	}
	for di := range e.descs {
		p := e.rf.PlaneOf(e.descs[di].loc.Block)
		pidx[p] = append(pidx[p], int32(di))
	}
	for p, idxs := range pidx {
		if len(idxs) == 0 {
			continue
		}
		for k, di := range idxs {
			e.sizes[k] = e.descs[di].storedN
		}
		e.rf.TakeProgramBufs(p, e.sizes[:len(idxs)], e.bufs[:len(idxs)])
		for k, di := range idxs {
			e.descs[di].dst = e.bufs[k]
			e.ret[p] = append(e.ret[p], e.bufs[k])
			e.bufs[k] = nil
		}
	}
}

// planeReads is the read phase: Do(p) executes plane p's descriptors in
// canonical order as a single read run under one plane-lock acquisition.
type planeReads Reads

func (t *planeReads) Do(p int) {
	idxs := t.planeIdx[p]
	if len(idxs) == 0 {
		return
	}
	run := t.planeOps[p][:0]
	for _, di := range idxs {
		d := &t.descs[di]
		d.runPos = int32(len(run))
		run = append(run, flash.ReadOp{Block: d.loc.Block, Page: d.loc.Page, Dst: d.dst})
	}
	t.planeOps[p] = run
	t.rf.ReadRunInto(run)
	for _, di := range idxs {
		d := &t.descs[di]
		d.raw = run[d.runPos].Res
		d.rerr = run[d.runPos].Err
	}
}

// queueDecodes is the decode phase: Do(q) decodes queue q's payloads
// through their stream's scheme, in place within the chip-owned
// buffers. Each descriptor writes only its own buffer and fields, so
// queues share nothing; ops whose Queue lies outside [0, queues) decode
// on queue 0.
type queueDecodes Reads

func (t *queueDecodes) Do(q int) {
	for di := range t.descs {
		d := &t.descs[di]
		if d.rerr != nil || d.raw.Data == nil {
			continue
		}
		oq := t.ops[d.opIdx].Queue
		if oq < 0 || oq >= t.queues {
			oq = 0
		}
		if oq != q {
			continue
		}
		d.data, d.corrected, d.derr = ecc.DecodeStored(t.r.Scheme(d.loc.Stream), d.raw.Data)
	}
}

// settle is one serial pass in canonical order building each op's
// result, field for field what the backend's serial Read produces.
func (e *Reads) settle(fates []storage.BatchReadFate) {
	for di := range e.descs {
		d := &e.descs[di]
		if d.rerr != nil {
			fates[d.opIdx].Err = e.r.ReadError(d.lpa, &d.loc, d.rerr)
			continue
		}
		flips := d.loc.BaseFlips + d.raw.FlippedTotal
		res := storage.ReadResult{DataLen: d.loc.DataLen, RawFlips: flips, Stream: d.loc.Stream}
		if d.raw.Data == nil {
			// Accounting-only: estimate decodability from the flip count,
			// including corruption crystallized across relocations.
			res.Degraded = !e.r.Scheme(d.loc.Stream).EstimateDecode(flips, d.loc.DataLen)
		} else {
			data := d.data
			if len(data) > d.loc.DataLen {
				data = data[:d.loc.DataLen] // strip alignment padding
			}
			res.Data = data
			res.Corrected = d.corrected
			res.Degraded = d.derr != nil
		}
		e.r.Settled(d.lpa, &d.loc, res.Degraded)
		fates[d.opIdx].Res = res
	}
}
