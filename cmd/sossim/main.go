// Command sossim runs the paper-reproduction experiments and ad-hoc
// device simulations.
//
// Usage:
//
//	sossim -list                 list experiments
//	sossim -exp E7               run one experiment (full fidelity)
//	sossim -exp all -quick       run everything fast
//	sossim -exp all -parallel 0  fan out across all cores (0 = GOMAXPROCS)
//	sossim -sim -days 365        simulate a year of phone use on SOS
//	sossim -sim -profile tlc     ... on the TLC baseline
//	sossim -sim -metrics         emit Prometheus metrics instead of the report
//	sossim -sim -trace t.jsonl   dump the telemetry event trace as JSON lines
//	sossim -sim -audit -cpuprofile cpu.pprof   profile the run (go tool pprof)
//	sossim -serve -addr :8080    host the multi-device fleet daemon
//
// Output is bit-identical for every -parallel value: per-trial seeds are
// derived before dispatch and results are assembled in item order. The
// same holds for the daemon: fleet reports and /metrics scrapes are
// byte-identical at every -parallel for a given request sequence.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"sos"
	"sos/internal/core"
	"sos/internal/experiments"
	"sos/internal/fleetd"
	"sos/internal/obs"
	"sos/internal/trace"
	"sos/internal/workload"
)

func main() {
	var opts simOpts
	var (
		list    = flag.Bool("list", false, "list experiment ids and titles")
		exp     = flag.String("exp", "", "experiment id to run, or 'all'")
		quick   = flag.Bool("quick", false, "reduced-fidelity fast mode")
		runSim  = flag.Bool("sim", false, "run an ad-hoc personal-device simulation")
		par     = flag.Int("parallel", 1, "worker goroutines for experiments and their trials (0 = all cores)")
		doServe = flag.Bool("serve", false, "host the fleet daemon (POST /v1/fleet, GET /metrics, ...)")
		addr    = flag.String("addr", "127.0.0.1:8080", "with -serve: listen address (use :0 for an ephemeral port)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the -exp/-list/-sim run to this file")
	)
	flag.TextVar(&opts.Profile, "profile", sos.ProfileSOS, "device profile for -sim: sos|tlc|qlc")
	flag.TextVar(&opts.Backend, "backend", sos.BackendFTL, "translation layer for -sim: ftl|zns")
	flag.IntVar(&opts.Days, "days", 365, "simulated days for -sim")
	flag.Uint64Var(&opts.Seed, "seed", 1, "simulation seed")
	flag.StringVar(&opts.Record, "record", "", "with -sim: record the workload trace to this file")
	flag.StringVar(&opts.Replay, "replay", "", "with -sim: replay a recorded trace instead of generating")
	flag.BoolVar(&opts.Metrics, "metrics", false, "with -sim: print the Prometheus text exposition instead of the report")
	flag.StringVar(&opts.TraceFile, "trace", "", "with -sim: write the telemetry event trace (JSON lines) to this file")
	flag.IntVar(&opts.Queues, "queues", 1, "submission queues for batched writes (results identical at every value)")
	flag.IntVar(&opts.Planes, "planes", 0, "chip planes (0 = profile default; each value is a distinct, equally deterministic device)")
	flag.IntVar(&opts.ReadWorkers, "read-workers", 1, "goroutine bound for batched reads (results identical at every value)")
	flag.BoolVar(&opts.Audit, "audit", false, "with -sim: enable the end-to-end integrity auditor")
	flag.IntVar(&opts.ScrubBudget, "scrub-budget", 0, "with -audit: slice reads per audit pass (0 = default)")
	flag.TextVar(&opts.Placement, "placement", sos.PlacementOff, "lifetime-hint policy for -sim: off|binary|longevity")
	flag.Parse()
	experiments.SetParallelism(*par)
	// -parallel doubles as the batch worker bound for -sim runs; the
	// batched datapath is deterministic, so this only changes wall time.
	opts.Workers = *par
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	var run func() error
	switch {
	case *doServe:
		if *cpuProf != "" {
			fail(errors.New("-cpuprofile does not apply to -serve, which runs until killed"))
		}
		// -parallel is the daemon's worker bound too; 0 keeps fleetd's
		// all-cores default.
		srv := fleetd.New(fleetd.Config{Workers: *par})
		fail(serve(*addr, srv.Handler()))
		return
	case *list:
		run = func() error {
			for _, id := range experiments.IDs() {
				title, _ := experiments.Title(id)
				fmt.Printf("%-4s %s\n", id, title)
			}
			return nil
		}
	case *exp == "all":
		run = func() error {
			rs, err := experiments.RunAllParallel(*quick, *par)
			for _, r := range rs {
				if r != nil {
					fmt.Println(r)
				}
			}
			return err
		}
	case *exp != "":
		run = func() error {
			r, err := experiments.Run(*exp, *quick)
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}
	case *runSim:
		opts.Out = os.Stdout
		run = func() error { return simulate(opts) }
	default:
		flag.Usage()
		os.Exit(2)
	}
	fail(withCPUProfile(*cpuProf, run))
}

// withCPUProfile runs fn under the runtime CPU profiler, writing the
// profile to path (empty: no profiling). The profiler only samples host
// stacks, so fn's output is byte-identical with or without it.
func withCPUProfile(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); runErr == nil {
		runErr = err
	}
	return runErr
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sossim:", err)
		os.Exit(1)
	}
}

// auditPayload synthesizes a deterministic payload for a create event —
// an xorshift stream keyed by the workload file id — giving the
// integrity auditor real bytes to digest and verify.
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

// simOpts parameterizes one -sim run.
type simOpts struct {
	Profile sos.Profile
	Backend sos.Backend
	Days    int
	Seed    uint64
	Record  string // record the workload trace to this file
	Replay  string // replay a recorded workload trace
	Metrics bool   // print the Prometheus exposition instead of the report
	// Queues/Planes/Workers/ReadWorkers configure the concurrent
	// datapath; results are byte-identical at every setting.
	Queues      int
	Planes      int
	Workers     int
	ReadWorkers int
	// TraceFile receives the telemetry event trace as JSON lines.
	TraceFile string
	// Audit enables the integrity auditor; ScrubBudget is its per-pass
	// slice-read budget (0 = default).
	Audit       bool
	ScrubBudget int
	// Placement is the lifetime-hint policy; off keeps the report
	// byte-identical to builds without placement support.
	Placement sos.Placement
	Out       io.Writer // defaults to os.Stdout
}

func simulate(opts simOpts) error {
	out := opts.Out
	if out == nil {
		out = os.Stdout
	}
	sys, err := sos.New(sos.Config{
		Profile:     opts.Profile,
		Backend:     opts.Backend,
		Seed:        opts.Seed,
		Queues:      opts.Queues,
		Planes:      opts.Planes,
		Workers:     opts.Workers,
		ReadWorkers: opts.ReadWorkers,
		Observe:     opts.Metrics || opts.TraceFile != "",
		Audit:       opts.Audit,
		ScrubBudget: opts.ScrubBudget,
		Placement:   opts.Placement,
	})
	if err != nil {
		return err
	}

	var gen workload.Generator
	switch {
	case opts.Replay != "":
		f, err := os.Open(opts.Replay)
		if err != nil {
			return err
		}
		defer f.Close()
		r := trace.NewReader(f)
		defer func() {
			if r.Err() != nil {
				fmt.Fprintln(os.Stderr, "sossim: trace:", r.Err())
			}
		}()
		gen = r
	default:
		cfg := workload.DefaultPersonalConfig(opts.Days)
		cfg.Seed = opts.Seed + 0x7ead
		gen, err = workload.NewPersonal(cfg)
		if err != nil {
			return err
		}
		if opts.Record != "" {
			// Materialize the trace first, then replay it into the
			// simulation so the file matches the run exactly.
			f, err := os.Create(opts.Record)
			if err != nil {
				return err
			}
			if _, err := trace.Record(f, gen); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			rf, err := os.Open(opts.Record)
			if err != nil {
				return err
			}
			defer rf.Close()
			gen = trace.NewReader(rf)
			fmt.Fprintf(out, "trace recorded to %s\n", opts.Record)
		}
	}

	rc := core.RunConfig{}
	if opts.Audit {
		// The auditor verifies payload digests, so audit runs carry real
		// (deterministic, seed-independent) bytes instead of
		// accounting-only sizes. Audit-off runs keep the accounting-only
		// fast path and stay byte-identical to earlier builds.
		rc.PayloadFor = auditPayload
	}
	rep, err := sys.Run(gen, rc)
	if err != nil {
		return err
	}
	if opts.TraceFile != "" {
		f, err := os.Create(opts.TraceFile)
		if err != nil {
			return err
		}
		if err := obs.WriteEventsJSON(f, sys.Events()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if opts.Metrics {
		// Metrics mode prints only the exposition, so stdout pipes
		// straight into a parser or a Prometheus textfile collector.
		_, err := sys.Snapshot().WritePrometheus(out)
		return err
	}
	smart := rep.FinalSmart
	es := rep.EngineStats
	fmt.Fprintf(out, "profile          %s\n", opts.Profile)
	fmt.Fprintf(out, "backend          %s\n", smart.Backend)
	if opts.Placement != sos.PlacementOff {
		// Emitted only when placement is on, so -placement=off output
		// stays byte-identical to pre-placement builds.
		fmt.Fprintf(out, "placement        %s\n", opts.Placement)
	}
	fmt.Fprintf(out, "simulated        %v (%d events, %d skipped reads, %d no-space)\n",
		rep.Elapsed, rep.Events, rep.SkippedReads, rep.NoSpace)
	fmt.Fprintf(out, "capacity         %d bytes (page %d B)\n", smart.CapacityBytes, smart.PageSize)
	fmt.Fprintf(out, "wear             avg %.2f%%  max %.2f%%\n", smart.AvgWearFrac*100, smart.MaxWearFrac*100)
	fmt.Fprintf(out, "write amp        %.2f\n", smart.WriteAmp)
	fmt.Fprintf(out, "device busy      %v\n", smart.BusyTime.Duration())
	fmt.Fprintf(out, "files            created=%d deleted=%d auto-deleted=%d\n", es.Created, es.Deleted, es.AutoDeleted)
	fmt.Fprintf(out, "classification   reviewed=%d demoted=%d promoted=%d sys-misplaced=%d\n",
		es.Reviewed, es.Demoted, es.Promoted, es.SysMisplaced)
	fmt.Fprintf(out, "degradation      degraded-reads=%d regret-reads=%d scrub-moves=%d\n",
		es.DegradedReads, es.RegretReads, es.ScrubMoves)
	if a := sys.Engine.Auditor(); a != nil {
		as := a.Stats()
		fmt.Fprintf(out, "audit            passes=%d scanned=%d clean=%d degraded=%d silent=%d lost=%d repairs=%d\n",
			as.Passes, as.SlicesScanned, as.Clean, as.Degraded, as.Silent, as.Lost, as.Repairs)
	}
	fmt.Fprintf(out, "blocks           retired=%d resuscitated=%d of %d\n",
		smart.RetiredBlocks, smart.Resuscitations, smart.TotalBlocks)
	fmt.Fprintf(out, "wear histogram   ")
	for i, c := range smart.WearHistogram {
		if c > 0 {
			fmt.Fprintf(out, "[%d0-%d0%%)=%d ", i, i+1, c)
		}
	}
	fmt.Fprintln(out)
	kg, err := sys.EmbodiedKg()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "embodied carbon  %.3f kg CO2e\n", kg)
	return nil
}
