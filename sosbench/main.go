// Command sosbench is the end-to-end benchmark of the SOS simulator. It
// drives whole runs that users start — `sossim -sim` device lifetimes,
// an audited run, and a fleet advanced through the daemon — from one
// process, measures them for a fixed number of seconds, checks every
// simulated report against the sossim binary (or, for the fleet, an
// in-process sos.Fleet), and prints one JSON result line.
//
// Usage (run.sh builds this binary and sossim first):
//
//	sosbench -sossim <path> -workload sim-ftl-years -seed 1 -seconds 15 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the same workload through a stack assembled with timing wrappers
// around each layer and prints the per-layer metrics instead. See
// README.md for the workloads, the metrics and what they miss.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are the command-line settings shared by every workload.
type runOpts struct {
	seed   uint64
	window time.Duration
	trace  bool
	sossim string
}

// checks counts verified operations; a mismatch or an error is a failed
// one. Simulated outcomes (no-space, skipped reads) are not failures.
type checks struct {
	attempted, failed int
}

func (c *checks) note(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "sosbench: check failed: "+format+"\n", args...)
	}
}

// workloadFunc runs one workload and returns its metrics.
type workloadFunc func(o runOpts, c *checks) (map[string]metric, error)

var workloads = map[string]workloadFunc{
	"sim-ftl-years":     simFTLYears.run,
	"sim-audit-dense":   simAuditDense.run,
	"sim-zns-longevity": simZNSLongevity.run,
	"fleet-daemon":      runFleet,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sim-ftl-years | sim-audit-dense | sim-zns-longevity | fleet-daemon")
		seed    = flag.Uint64("seed", 1, "workload seed (the held-out seed for re-checking claims is 9001)")
		seconds = flag.Float64("seconds", 15, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		sossim  = flag.String("sossim", "", "path to the sossim binary the sim reports are checked against")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -seconds > 0 and -trace 0|1"))
	}
	o := runOpts{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		sossim: *sossim,
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
	}
	var c checks
	got, err := run(o, &c)
	if err != nil {
		fail(err)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out := result{Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := got[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		out.Metrics[d.name] = m
	}
	out.Correct = c.failed == 0 && c.attempted > 0
	line, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sosbench:", err)
	os.Exit(1)
}

// fits reports whether another repetition of typical length d still
// fits the measurement window that started at start. The first
// repetition always runs.
func (o runOpts) fits(start time.Time, reps int, d time.Duration) bool {
	return reps == 0 || time.Since(start)+d <= o.window
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// heapAllocBytes reads the cumulative Go heap bytes allocated.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time (user + system) the process has used so far,
// on every thread. It leaves out the time the host runs something
// else, which wall-clock time on a shared machine does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail(fmt.Errorf("getrusage: %w", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
