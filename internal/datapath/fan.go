// Package datapath is the batched datapath both storage backends share:
// the read-phase engine behind ReadBatch, the batched GC victim read,
// and the fan-out helper their parallel phases run on. A backend
// supplies only what differs between placement interfaces — how a
// logical page resolves to a physical one (Resolver) — so the device-
// side FTL (internal/ftl) and the host-side zoned FTL (internal/zns) run
// one implementation of the phase discipline (DESIGN.md §10, §14).
package datapath

import "sync"

// Task is one fanned-out phase: Do(i) processes item i — a plane, or a
// submission queue. Items must share nothing, so any assignment of
// items to goroutines yields the same result.
type Task interface {
	Do(i int)
}

// Fan runs tasks across goroutines. Its zero value is ready; a Fan must
// not run two tasks at once.
type Fan struct {
	wg sync.WaitGroup
}

// job is one spawned worker's assignment: items w, w+nw, ... of t.
type job struct {
	t        Task
	w, nw, n int
	wg       *sync.WaitGroup
}

// jobs hands spawned workers their assignments. Spawning the static,
// argument-free runJob needs no closure, and a send copies the job by
// value, so a fan-out allocates nothing. Every spawn is paired with
// exactly one send, so each job finds a worker whichever Fan sent it.
// The buffer lets Run hand out jobs without waiting for each worker to
// start; 64 exceeds any plane or queue count in use, and a full buffer
// only makes a send wait for its worker.
var jobs = make(chan job, 64)

func runJob() {
	j := <-jobs
	stride(j.t, j.w, j.nw, j.n)
	j.wg.Done()
}

// stride runs items w, w+nw, ... below n.
func stride(t Task, w, nw, n int) {
	for i := w; i < n; i += nw {
		t.Do(i)
	}
}

// Run calls t.Do(i) for every i in [0, n) on up to workers goroutines,
// the caller's included: worker w takes items w, w+nw, ... (a static
// stride). workers <= 1 runs every item in order on the caller's
// goroutine. Run returns when every item is done.
func (f *Fan) Run(t Task, n, workers int) {
	nw := min(workers, n)
	if nw <= 1 {
		stride(t, 0, 1, n)
		return
	}
	f.wg.Add(nw - 1)
	for w := 1; w < nw; w++ {
		go runJob()
		jobs <- job{t: t, w: w, nw: nw, n: n, wg: &f.wg}
	}
	stride(t, 0, nw, n)
	f.wg.Wait()
}
