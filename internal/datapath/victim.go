package datapath

import (
	"errors"

	"sos/internal/flash"
	"sos/internal/storage"
)

// Victims is the batched GC victim read: a reclaim collects the
// victim's live pages with Add, reads them all with Read before any
// relocation runs, relocates each from its pre-read result in Add
// order, and gives the buffers back with Release. The scratch is
// reused across reclaims, and is kept apart from Reads because GC can
// run (via escalation-driven relocation) while a previous ReadBatch's
// returned payloads are still live in their retained buffers.
type Victims struct {
	// LPAs are the live logical pages, in relocation order; Ops are
	// their reads, with Res/Err holding each outcome after Read.
	LPAs []int64
	Ops  []flash.ReadOp

	sizes []int
	bufs  [][]byte
}

// Reset empties the set for the next victim.
func (v *Victims) Reset() {
	v.LPAs = v.LPAs[:0]
	v.Ops = v.Ops[:0]
	v.sizes = v.sizes[:0]
}

// Add appends live page lpa at (block, page), whose stored codeword is
// storedN bytes long.
func (v *Victims) Add(lpa int64, block, page, storedN int) {
	v.LPAs = append(v.LPAs, lpa)
	v.Ops = append(v.Ops, flash.ReadOp{Block: block, Page: page})
	v.sizes = append(v.sizes, storedN)
}

// segment returns the end of the run of ops starting at lo that share
// lo's block — and so one plane.
func (v *Victims) segment(lo int) int {
	hi := lo + 1
	for hi < len(v.Ops) && v.Ops[hi].Block == v.Ops[lo].Block {
		hi++
	}
	return hi
}

// Read takes chip-pool buffers and executes one read run per block
// segment, in Add order, so plane RNG draws match per-page reads
// exactly. It then mirrors serial relocation's bounded retry of
// transient read faults (flash.ErrReadFault): each failed op is re-read
// through rf.Read until it succeeds or attempts reads were made,
// counting every retry in *retries. The bare chip never returns
// ErrReadFault; a run-capable fault interposer injects them per op.
func (v *Victims) Read(rf storage.RunFlash, attempts int, retries *int64) {
	n := len(v.Ops)
	if cap(v.bufs) < n {
		v.bufs = make([][]byte, n)
	}
	v.bufs = v.bufs[:n]
	for lo := 0; lo < n; {
		hi := v.segment(lo)
		rf.TakeProgramBufs(rf.PlaneOf(v.Ops[lo].Block), v.sizes[lo:hi], v.bufs[lo:hi])
		for k := lo; k < hi; k++ {
			v.Ops[k].Dst = v.bufs[k]
		}
		rf.ReadRunInto(v.Ops[lo:hi])
		lo = hi
	}
	for k := range v.Ops {
		op := &v.Ops[k]
		for a := 1; op.Err != nil && errors.Is(op.Err, flash.ErrReadFault) && a < attempts; a++ {
			*retries++
			op.Res, op.Err = rf.Read(op.Block, op.Page)
		}
	}
}

// Release returns Read's buffers to their plane pools; the read results
// stop being valid.
func (v *Victims) Release(rf storage.RunFlash) {
	for lo := 0; lo < len(v.Ops); {
		hi := v.segment(lo)
		rf.ReturnProgramBufs(rf.PlaneOf(v.Ops[lo].Block), v.bufs[lo:hi])
		lo = hi
	}
	clear(v.bufs)
	for k := range v.Ops {
		v.Ops[k].Dst = nil
		v.Ops[k].Res = flash.ReadResult{}
	}
}
