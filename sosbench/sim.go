package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sos"
	"sos/internal/audit"
	"sos/internal/core"
	"sos/internal/device"
	"sos/internal/sim"
	"sos/internal/workload"
)

// simWorkload is one `sossim -sim` configuration.
type simWorkload struct {
	backend   sos.Backend
	placement sos.Placement
	days      int
	audit     bool
	// parallel is sossim's -parallel (the batch worker bound); queues
	// and readWorkers are -queues and -read-workers.
	parallel, queues, readWorkers int
	// pool is how many inputs one pass runs (see inputs): enough that
	// the pass's figures vary little between seeds, few enough that a
	// pass takes 13-30 s on a 2-core machine. The first pass always runs
	// in full, and further passes only while they fit the window.
	pool int
}

var (
	// sossim -sim -days 1095: three years of phone use, accounting-only
	// payloads, serial datapath.
	simFTLYears = simWorkload{days: 1095, parallel: 1, queues: 1, readWorkers: 1, pool: 4}
	// sossim -sim -audit -days 7 -queues 2 -read-workers 2 -parallel 2:
	// dense payloads through the batched read path and the auditor. CPU
	// time per served event differs ~10% between 7-day inputs (~13% at
	// 4 days, ~26% at 2), so a pass runs a few whole weeks.
	simAuditDense = simWorkload{days: 7, audit: true, parallel: 2, queues: 2, readWorkers: 2, pool: 4}
	// sossim -sim -backend=zns -placement=longevity -days 100. CPU time
	// per served event differs ~16% (coefficient of variation) between
	// inputs, at 100 days as at 300, so a pass runs many short inputs
	// rather than a few long ones. (At 365 days some inputs wear the
	// simulated device out: sossim exits with "out of usable flash
	// space" around day 357-364.)
	simZNSLongevity = simWorkload{
		days: 100, backend: sos.BackendZNS, placement: sos.PlacementLongevity,
		parallel: 1, queues: 1, readWorkers: 1, pool: 20,
	}
)

// sossimArgs are the sossim flags this workload reproduces.
func (w simWorkload) sossimArgs(seed uint64) []string {
	args := []string{
		"-sim",
		"-days", strconv.Itoa(w.days),
		"-seed", strconv.FormatUint(seed, 10),
		"-backend", w.backend.String(),
		"-placement", w.placement.String(),
		"-queues", strconv.Itoa(w.queues),
		"-read-workers", strconv.Itoa(w.readWorkers),
		"-parallel", strconv.Itoa(w.parallel),
	}
	if w.audit {
		args = append(args, "-audit")
	}
	return args
}

// config is the sos.Config sossim builds for these flags.
func (w simWorkload) config(seed uint64) sos.Config {
	return sos.Config{
		Profile:     sos.ProfileSOS,
		Backend:     w.backend,
		Seed:        seed,
		Queues:      w.queues,
		Workers:     w.parallel,
		ReadWorkers: w.readWorkers,
		Audit:       w.audit,
		Placement:   w.placement,
	}
}

// generator is the personal workload sossim generates for a seed.
func (w simWorkload) generator(seed uint64) (workload.Generator, error) {
	cfg := workload.DefaultPersonalConfig(w.days)
	cfg.Seed = seed + 0x7ead
	return workload.NewPersonal(cfg)
}

// runConfig gives audited runs sossim's dense payloads.
func (w simWorkload) runConfig() core.RunConfig {
	if w.audit {
		return core.RunConfig{PayloadFor: auditPayload}
	}
	return core.RunConfig{}
}

// auditPayload is sossim's payload for a create event: an xorshift
// stream keyed by the workload file id.
func auditPayload(ev workload.Event) []byte {
	b := make([]byte, ev.Size)
	x := uint64(ev.FileID)*0x9e3779b97f4a7c15 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// outcome is everything the sossim report prints about a run.
type outcome struct {
	events, skipped, noSpace int
	elapsed                  sim.Time
	smart                    device.Smart
	stats                    core.Stats
	audit                    *audit.Stats // nil without the auditor
	embodiedKg               float64
}

// render prints the report exactly as `sossim -sim` does.
func (w simWorkload) render(o outcome) []byte {
	var b bytes.Buffer
	smart, es := o.smart, o.stats
	fmt.Fprintf(&b, "profile          %s\n", sos.ProfileSOS)
	fmt.Fprintf(&b, "backend          %s\n", smart.Backend)
	if w.placement != sos.PlacementOff {
		fmt.Fprintf(&b, "placement        %s\n", w.placement)
	}
	fmt.Fprintf(&b, "simulated        %v (%d events, %d skipped reads, %d no-space)\n",
		o.elapsed, o.events, o.skipped, o.noSpace)
	fmt.Fprintf(&b, "capacity         %d bytes (page %d B)\n", smart.CapacityBytes, smart.PageSize)
	fmt.Fprintf(&b, "wear             avg %.2f%%  max %.2f%%\n", smart.AvgWearFrac*100, smart.MaxWearFrac*100)
	fmt.Fprintf(&b, "write amp        %.2f\n", smart.WriteAmp)
	fmt.Fprintf(&b, "device busy      %v\n", smart.BusyTime.Duration())
	fmt.Fprintf(&b, "files            created=%d deleted=%d auto-deleted=%d\n", es.Created, es.Deleted, es.AutoDeleted)
	fmt.Fprintf(&b, "classification   reviewed=%d demoted=%d promoted=%d sys-misplaced=%d\n",
		es.Reviewed, es.Demoted, es.Promoted, es.SysMisplaced)
	fmt.Fprintf(&b, "degradation      degraded-reads=%d regret-reads=%d scrub-moves=%d\n",
		es.DegradedReads, es.RegretReads, es.ScrubMoves)
	if as := o.audit; as != nil {
		fmt.Fprintf(&b, "audit            passes=%d scanned=%d clean=%d degraded=%d silent=%d lost=%d repairs=%d\n",
			as.Passes, as.SlicesScanned, as.Clean, as.Degraded, as.Silent, as.Lost, as.Repairs)
	}
	fmt.Fprintf(&b, "blocks           retired=%d resuscitated=%d of %d\n",
		smart.RetiredBlocks, smart.Resuscitations, smart.TotalBlocks)
	fmt.Fprintf(&b, "wear histogram   ")
	for i, c := range smart.WearHistogram {
		if c > 0 {
			fmt.Fprintf(&b, "[%d0-%d0%%)=%d ", i, i+1, c)
		}
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "embodied carbon  %.3f kg CO2e\n", o.embodiedKg)
	return b.Bytes()
}

// inputs derives a run's inputs from its seed. A run measures several
// inputs because figures differ more between seeds than between runs
// of one seed; pooling them is what keeps a run's figures steady. The
// first input is the seed itself. The stride must not be the golden
// ratio sim.NewRNG steps its seeding by: seeds that far apart yield
// shifted copies of one random stream, not independent inputs.
func (w simWorkload) inputs(seed uint64) []uint64 {
	seeds := make([]uint64, w.pool)
	for i := range seeds {
		seeds[i] = seed + uint64(i)*0x5851f42d4c957f2d
	}
	return seeds
}

// references runs the sossim binary with this workload's flags for
// every input, two at a time, and returns its reports.
func (w simWorkload) references(sossim string, seeds []uint64) ([][]byte, error) {
	if sossim == "" {
		return nil, fmt.Errorf("-sossim is required for sim workloads")
	}
	refs := make([][]byte, len(seeds))
	errs := make([]error, len(seeds))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cmd := exec.Command(sossim, w.sossimArgs(seed)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			refs[i], errs[i] = cmd.Output()
			if errs[i] != nil {
				errs[i] = fmt.Errorf("sossim %v: %w: %s", w.sossimArgs(seed), errs[i], stderr.Bytes())
			}
		}(i, seed)
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

// rep is one measured repetition.
type rep struct {
	// setupCPU and runCPU are the process CPU time of the two phases;
	// run is the run's wall time.
	setupCPU, runCPU, run time.Duration
	allocBytes            uint64
	out                   outcome
	report                []byte
	// layers and readUs are a traced repetition's figures and read
	// latencies.
	layers map[string]float64
	readUs []float64
}

// served is how many of a run's events reached the device.
func (o outcome) served() int { return o.events - o.skipped - o.noSpace }

// untracedRep builds the stack through sos.New and runs it with
// core.Run, exactly as sossim does.
func (w simWorkload) untracedRep(seed uint64) (rep, error) {
	runtime.GC()
	c0 := cpuTime()
	sys, err := sos.New(w.config(seed))
	if err != nil {
		return rep{}, err
	}
	gen, err := w.generator(seed)
	if err != nil {
		return rep{}, err
	}
	c1 := cpuTime()
	a0 := heapAllocBytes()
	t1 := time.Now()
	res, err := sys.Run(gen, w.runConfig())
	run, runCPU := time.Since(t1), cpuTime()-c1
	alloc := heapAllocBytes() - a0
	if err != nil {
		return rep{}, err
	}
	kg, err := sys.EmbodiedKg()
	if err != nil {
		return rep{}, err
	}
	o := outcome{
		events: res.Events, skipped: res.SkippedReads, noSpace: res.NoSpace,
		elapsed: res.Elapsed, smart: res.FinalSmart, stats: res.EngineStats,
		embodiedKg: kg,
	}
	if a := sys.Engine.Auditor(); a != nil {
		as := a.Stats()
		o.audit = &as
	}
	return rep{
		setupCPU: c1 - c0, runCPU: runCPU, run: run,
		allocBytes: alloc, out: o, report: w.render(o),
	}, nil
}

// pass is one repetition of every input, untraced.
type pass struct {
	served      int
	run, runCPU time.Duration
	alloc       uint64
	setups      []float64
	outs        []outcome
}

// untracedPass runs every input once and checks each report against
// sossim's.
func (w simWorkload) untracedPass(o runOpts, c *checks, seeds []uint64, refs [][]byte) pass {
	var p pass
	for i, seed := range seeds {
		r, err := w.untracedRep(seed)
		if err != nil {
			c.note(false, "seed %d: %v", seed, err)
			continue
		}
		c.note(bytes.Equal(r.report, refs[i]), "seed %d: report differs from sossim:\n%s\nwant:\n%s", seed, r.report, refs[i])
		p.served += r.out.served()
		p.run += r.run
		p.runCPU += r.runCPU
		p.alloc += r.allocBytes
		p.setups = append(p.setups, r.setupCPU.Seconds())
		p.outs = append(p.outs, r.out)
	}
	return p
}

// procs is how many threads may run the workload's Go code at once:
// the most workers any stage of its datapath runs in parallel.
func (w simWorkload) procs() int { return max(w.parallel, w.queues, w.readWorkers) }

func (w simWorkload) run(o runOpts, c *checks) (map[string]metric, error) {
	runtime.GOMAXPROCS(w.procs())
	seeds := w.inputs(o.seed)
	refs, err := w.references(o.sossim, seeds)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return w.runTraced(o, c, seeds, refs)
	}
	var setups, rates, allocs []float64
	var rss float64
	var last pass
	var lastDur time.Duration
	start := time.Now()
	for n := 0; o.fits(start, n, lastDur); n++ {
		t := time.Now()
		p := w.untracedPass(o, c, seeds, refs)
		lastDur = time.Since(t)
		if n == 0 {
			// Read after a fixed amount of work: the high-water mark
			// creeps up with every further pass.
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
		setups = append(setups, p.setups...)
		if len(p.outs) == len(seeds) {
			rates = append(rates, float64(p.served)/p.runCPU.Seconds())
			allocs = append(allocs, float64(p.alloc)/float64(p.served)/(1<<10))
			last = p
		}
	}
	if len(rates) == 0 {
		return map[string]metric{}, nil
	}
	var wa float64
	var events int
	for _, out := range last.outs {
		wa += out.smart.WriteAmp / float64(len(last.outs))
		events += out.events
	}
	return map[string]metric{
		"setup_s":                 {median(setups), "s"},
		"served_events_per_cpu_s": {median(rates), "1/s"},
		"peak_rss_mb":             {rss, "MiB"},
		"alloc_kib_per_served":    {median(allocs), "KiB"},
		"write_amp":               {wa, "ratio"},
		"served_frac":             {float64(last.served) / float64(events), "ratio"},
	}, nil
}
