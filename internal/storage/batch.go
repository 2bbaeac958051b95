package storage

import "sos/internal/flash"

// Batched submission: the multi-queue write path. The device layer
// collects a burst of logical writes, deals them across submission
// queues, and hands the whole batch to the backend in one call. The
// backend parallelizes what is safe to parallelize (per-queue ECC
// encode, per-plane programs) and keeps everything order-sensitive
// (placement, mapping updates, telemetry) in one canonical pass, so a
// batch produces byte-identical state at every worker count.

// BatchOp is one logical write: the argument of Backend.Write and one
// element of a WriteBatch. Seq is the op's global submission sequence
// number and Queue its submission queue; inside a batch both are
// assigned by the device before the backend sees it (queues are dealt
// contiguous chunks of Seq — see sim.DealQueue).
type BatchOp struct {
	LPA     int64
	Data    []byte
	DataLen int
	Stream  StreamID
	Seq     uint64
	Queue   int
	// Digest/HasDigest carry the host-computed payload digest into the
	// page's OOB tag (see Backend.Digest). Zero-valued when the writer
	// tracks no digests.
	Digest    uint64
	HasDigest bool
	// Hint is the predicted-lifetime bin routing this op to its
	// per-(stream, bin) active block or zone (see Backend.Hint). The
	// zero value HintNone reproduces unhinted placement exactly.
	Hint LifetimeHint
}

// BatchFate is the per-op outcome of a batch, in submission order.
// Block/Page report where the payload landed (valid when Err is nil).
type BatchFate struct {
	Err   error
	Block int
	Page  int
}

// BatchReadOp is one logical read inside a batch. Seq/Queue are
// assigned by the device before the backend sees the batch, exactly as
// for BatchOp (contiguous Seq chunks per queue — see sim.DealQueue).
type BatchReadOp struct {
	LPA   int64
	Seq   uint64
	Queue int
}

// BatchReadFate is the per-op outcome of a read batch, in submission
// order. Res/Err are exactly what the backend's per-op Read would have
// returned for the same LPA at the same point in the op sequence.
// Block/Page report the physical page the read resolved to (-1 when the
// LPA was unmapped), so the device layer can lane the completion onto
// the owning plane's virtual-time timeline.
type BatchReadFate struct {
	Res   ReadResult
	Err   error
	Block int
	Page  int
}

// RunFlash is the optional Flash extension for plane-parallel run
// execution. *flash.Chip implements it; interposers that serialize the
// medium (the plain fault injector's op-indexed plans, for one) simply
// don't, which sends the backends' batched paths down their serial
// per-op code — the safe default for any wrapper that didn't opt in.
//
// A run is a slice of same-plane ops executed under one plane-lock
// acquisition. Per-op results, error injection, and the plane RNG
// stream are identical to issuing the same ops one by one through
// Read / ProgramTagged in the same per-plane order. Program runs hand
// ownership of chip-pool buffers (TakeProgramBufs + Own) to the chip,
// so each payload byte is written to the medium exactly once; read
// runs fill chip-pool buffers the caller returns when done.
type RunFlash interface {
	Flash
	// Planes returns the number of independently lockable planes.
	Planes() int
	// PlaneOf returns the plane that owns block b.
	PlaneOf(b int) int
	// ReadRunInto executes a run of reads into each op's Dst.
	ReadRunInto(ops []flash.ReadOp)
	// ProgramRunTagged executes a run of tagged programs.
	ProgramRunTagged(ops []flash.ProgramOp)
	// TakeProgramBufs fills bufs with plane-pool buffers of the given
	// sizes; ReturnProgramBufs gives them back.
	TakeProgramBufs(plane int, sizes []int, bufs [][]byte)
	ReturnProgramBufs(plane int, bufs [][]byte)
}
