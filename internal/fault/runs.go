package fault

import "sos/internal/flash"

// RunMedium is the run-capable chip surface a RunInjector forwards
// buffer management to. *flash.Chip satisfies it; the method set is the
// run half of storage.RunFlash (kept structural so this package does
// not import storage).
type RunMedium interface {
	Medium
	ReadRunInto(ops []flash.ReadOp)
	ProgramRunTagged(ops []flash.ProgramOp)
	TakeProgramBufs(plane int, sizes []int, bufs [][]byte)
	ReturnProgramBufs(plane int, bufs [][]byte)
	Planes() int
	PlaneOf(b int) int
}

// RunInjector is an Injector that additionally exposes the batched run
// surface (Planes/PlaneOf, ReadRunInto, ProgramRunTagged, buffer pool),
// so backends take their batched read/write/GC paths under fault
// injection instead of downgrading to per-op serial. The torture
// harness uses it to land power cuts inside batched GC relocation and
// batched read runs.
//
// Two properties keep fault accounting exact and deterministic:
//
//   - every run op passes through the Injector's full fault schedule one
//     page at a time, in run order, so op-indexed windows and the power
//     cut trigger land mid-run exactly as they would mid-loop on the
//     serial path (a torn cut still persists only the dying op);
//   - the injector reports a single plane, which collapses every batched
//     consumer's plane fan-out to one canonical-order run per phase —
//     medium access stays on one goroutine at every worker count, so the
//     global op counter (the cut-index space) is schedule-independent.
//
// Like the Injector it extends, a RunInjector is not safe for
// concurrent use; the single-plane report is what keeps batched
// consumers from ever calling it concurrently.
type RunInjector struct {
	Injector
	runs RunMedium
}

// NewRuns wraps a run-capable medium with a fault plan, like New but
// with the batched run surface exposed.
func NewRuns(inner RunMedium, plan Plan) *RunInjector {
	ri := &RunInjector{runs: inner}
	ri.inner = inner
	ri.install(plan)
	return ri
}

// Planes reports a single plane: batched consumers then put every block
// in one run, preserving the serial canonical op order (see type doc).
func (ri *RunInjector) Planes() int { return 1 }

// PlaneOf places every block on the single reported plane.
func (ri *RunInjector) PlaneOf(b int) int { return 0 }

// ReadRunInto executes a run of reads one fault-checked page op at a
// time, in run order. Payloads land in each op's Dst, mirroring the
// chip's contract; per-op errors (injected faults, the power cut) land
// in op.Err exactly as the serial Read path would report them.
func (ri *RunInjector) ReadRunInto(ops []flash.ReadOp) {
	for k := range ops {
		op := &ops[k]
		op.Res, op.Err = ri.Read(op.Block, op.Page)
		if op.Err == nil && op.Dst != nil && op.Res.Data != nil {
			n := copy(op.Dst, op.Res.Data)
			op.Res.Data = op.Dst[:n]
		}
	}
}

// ProgramRunTagged executes a run of tagged programs one fault-checked
// page op at a time, in run order. Owned buffers are always returned to
// the pool afterwards: the per-op ProgramTagged path copies payloads
// into the chip, so ownership ends here whether the op succeeded, drew
// an injected failure, or died at the power cut.
func (ri *RunInjector) ProgramRunTagged(ops []flash.ProgramOp) {
	for k := range ops {
		op := &ops[k]
		op.Err = ri.ProgramTagged(op.Block, op.Page, op.Data, op.DataLen, op.Tag)
		if op.Own && op.Data != nil {
			ri.runs.ReturnProgramBufs(0, [][]byte{op.Data})
			op.Data = nil
		}
	}
}

// TakeProgramBufs forwards to the wrapped chip's pool. The consumer's
// plane index is always 0 (the single reported plane); buffers come
// from the chip's plane-0 pool, which any block may use — pooled
// buffers are plain host memory.
func (ri *RunInjector) TakeProgramBufs(plane int, sizes []int, bufs [][]byte) {
	ri.runs.TakeProgramBufs(0, sizes, bufs)
}

// ReturnProgramBufs forwards to the wrapped chip's plane-0 pool.
func (ri *RunInjector) ReturnProgramBufs(plane int, bufs [][]byte) {
	ri.runs.ReturnProgramBufs(0, bufs)
}
