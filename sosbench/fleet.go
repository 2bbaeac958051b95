package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"sos"
	"sos/internal/fleetd"
)

// The fleet-daemon workload: the handler `sossim -serve -parallel 1`
// mounts, behind a loopback listener, driven by one closed-loop client
// over one connection. Each repetition starts a fresh daemon, POSTs a
// fleet, then advances it fleetAdvances times, reading the per-shard
// report and /metrics after each advance.
//
// One shard worker, not two: shard replays allocate ~250 MB/s per
// worker, and on a 2-core machine two workers plus the garbage collector
// oversubscribe the cores, so repetition times swung ±25% (1.4-2.2 s)
// against ±4% with one worker. Fleet output is identical at every
// worker count. The process then runs Go code on one thread
// (GOMAXPROCS 1): with a second one idle, the garbage collector's
// idle-time mark workers spend ~25% more CPU time, as much as the host
// leaves that core free.
const (
	fleetShards      = 512
	fleetAdvances    = 3
	fleetAdvanceDays = 10
	fleetWorkers     = 1
	// fleetMinReps repetitions always run, however long they take, so
	// setup_s is a median of at least that many samples; peak_rss_mb is
	// read after them, so it reflects a fixed amount of work rather than
	// how many repetitions the machine fit.
	fleetMinReps = 4
)

// fleetConfig is the fleet the client creates: many short replays on
// the tiny default geometry, with an age mix, a rolling storm window
// and stragglers. The fleet-shared classifier is trained from the fleet
// seed; at the 1500-file default its decisions differ enough between
// seeds to split fleets into a light-GC and a heavy-GC regime 4x apart
// in speed, so the benchmark trains it on 30000 files, where seeds
// agree. The thinned workload keeps capacity pressure to the storm
// shards.
func fleetConfig(seed uint64) sos.FleetConfig {
	return sos.FleetConfig{
		Shards:         fleetShards,
		Seed:           seed,
		WorkloadScale:  0.1,
		AgeMixDays:     []int{0, fleetAdvanceDays, 2 * fleetAdvanceDays},
		StormEvery:     8,
		StragglerEvery: 16,
		TrainingFiles:  30000,
	}
}

// routeSpans times the daemon's routes server-side (traced runs).
type routeSpans struct{ create, advance, report, metrics span }

func (rs *routeSpans) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		switch p := r.URL.Path; {
		case r.Method == http.MethodPost && p == "/v1/fleet":
			rs.create.since(t)
		case strings.HasSuffix(p, "/advance"):
			rs.advance.since(t)
		case strings.HasSuffix(p, "/report"):
			rs.report.since(t)
		case p == "/metrics":
			rs.metrics.since(t)
		}
	})
}

// daemon is one running fleetd instance on an ephemeral loopback port.
type daemon struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func startDaemon(routes *routeSpans) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon listen: %w", err)
	}
	h := fleetd.New(fleetd.Config{Workers: fleetWorkers}).Handler()
	if routes != nil {
		h = routes.wrap(h)
	}
	d := &daemon{srv: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	return d, nil
}

// stop closes the listener and every connection, and waits for the
// serve loop to exit. The client is closed-loop, so no request is in
// flight.
func (d *daemon) stop() {
	d.srv.Close()
	<-d.done
}

// exchange is one request and what came back.
type exchange struct {
	what string
	body []byte
	err  error
}

// client is the single closed-loop client, on at most one connection.
type client struct{ http *http.Client }

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) do(what, method, url string, body []byte, want int) exchange {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return exchange{what: what, err: err}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return exchange{what: what, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return exchange{what: what, body: b, err: err}
}

// fleetRep is one measured repetition.
type fleetRep struct {
	// setupCPU and runCPU are the process CPU time of the two phases;
	// run is the run's wall time.
	setupCPU, runCPU, run time.Duration
	allocBytes            uint64
	// replays and served count shard replays and the replayed events
	// that reached the device, summed over every advance.
	replays, served int64
	ex              []exchange
	final           *sos.FleetReport
}

// openFleet starts a daemon and creates the benchmark fleet on it, the
// fleet workload's setup. It returns the create exchange and the
// fleet's URL; on error the daemon is already stopped.
func openFleet(c *client, seed uint64, routes *routeSpans) (*daemon, exchange, string, error) {
	d, err := startDaemon(routes)
	if err != nil {
		return nil, exchange{}, "", err
	}
	cfg, err := json.Marshal(fleetConfig(seed))
	if err != nil {
		d.stop()
		return nil, exchange{}, "", err
	}
	ex := c.do("create", http.MethodPost, d.url+"/v1/fleet", cfg, http.StatusCreated)
	var created fleetd.CreateResponse
	if ex.err == nil {
		ex.err = json.Unmarshal(ex.body, &created)
	}
	if ex.err != nil {
		d.stop()
		return nil, ex, "", fmt.Errorf("create fleet: %w", ex.err)
	}
	return d, ex, d.url + "/v1/fleet/" + created.ID, nil
}

// closeFleet stops the daemon and drops the client's connection.
func closeFleet(c *client, d *daemon) {
	d.stop()
	c.http.CloseIdleConnections()
}

func runFleetRep(c *client, seed uint64, routes *routeSpans) (fleetRep, error) {
	runtime.GC()
	var r fleetRep
	c0 := cpuTime()
	d, create, base, err := openFleet(c, seed, routes)
	if err != nil {
		return r, err
	}
	defer closeFleet(c, d)
	c1 := cpuTime()
	r.setupCPU = c1 - c0
	r.ex = append(r.ex, create)
	metricsURL := d.url + "/metrics"

	a0 := heapAllocBytes()
	t1 := time.Now()
	expired := make([]bool, fleetShards)
	for k := 0; k < fleetAdvances; k++ {
		body := []byte(fmt.Sprintf(`{"days":%d}`, fleetAdvanceDays))
		r.ex = append(r.ex, c.do(fmt.Sprintf("advance %d", k), http.MethodPost, base+"/advance", body, http.StatusOK))
		rep := c.do(fmt.Sprintf("report %d", k), http.MethodGet, base+"/report?per_shard=1", nil, http.StatusOK)
		r.ex = append(r.ex, rep)
		r.ex = append(r.ex, c.do(fmt.Sprintf("metrics %d", k), http.MethodGet, metricsURL, nil, http.StatusOK))
		if rep.err != nil {
			continue
		}
		var fr sos.FleetReport
		if err := json.Unmarshal(rep.body, &fr); err != nil || len(fr.PerShard) != fleetShards {
			return r, fmt.Errorf("report %d: malformed per-shard report: %v", k, err)
		}
		// A shard is replayed on an advance unless it had already
		// expired; its record then holds that replay's events.
		for i, s := range fr.PerShard {
			if !expired[i] {
				r.replays++
				r.served += s.Events - s.NoSpace
			}
			expired[i] = s.Expired
		}
		r.final = &fr
	}
	r.run = time.Since(t1)
	r.runCPU = cpuTime() - c1
	r.allocBytes = heapAllocBytes() - a0
	return r, nil
}

// fleetReference replays the same call sequence on an in-process
// sos.Fleet and renders the advance and report bodies the daemon must
// return, keyed by exchange name.
func fleetReference(seed uint64) (map[string][]byte, error) {
	cfg := fleetConfig(seed)
	cfg.Workers = fleetWorkers
	f, err := sos.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	want := map[string][]byte{}
	for k := 0; k < fleetAdvances; k++ {
		rep, err := f.Advance(fleetAdvanceDays)
		if err != nil {
			return nil, err
		}
		var adv, full bytes.Buffer
		if err := rep.WriteJSON(&adv); err != nil {
			return nil, err
		}
		if err := f.Report(true).WriteJSON(&full); err != nil {
			return nil, err
		}
		want[fmt.Sprintf("advance %d", k)] = adv.Bytes()
		want[fmt.Sprintf("report %d", k)] = full.Bytes()
	}
	return want, nil
}

// verifyFleet checks every exchange of every repetition: advance and
// report bodies against the in-process fleet, create and /metrics
// bodies against the first repetition's.
func verifyFleet(c *checks, reps []fleetRep, want map[string][]byte) {
	first := map[string][]byte{}
	for n, r := range reps {
		for _, ex := range r.ex {
			if ex.err != nil {
				c.note(false, "repetition %d %s: %v", n, ex.what, ex.err)
				continue
			}
			ref, ok := want[ex.what]
			if !ok {
				if _, seen := first[ex.what]; !seen {
					first[ex.what] = ex.body
				}
				ref = first[ex.what]
			}
			c.note(bytes.Equal(ex.body, ref), "repetition %d %s differs from the reference", n, ex.what)
		}
	}
}

func runFleet(o runOpts, c *checks) (map[string]metric, error) {
	runtime.GOMAXPROCS(fleetWorkers)
	cl := newClient()
	var reps []fleetRep
	var setups, rates, allocs []float64
	var base fleetRep
	var traced []map[string]float64
	var rss float64
	var last time.Duration
	start := time.Now()
	for n := 0; n < fleetMinReps || o.fits(start, n, last); n++ {
		var routes *routeSpans
		if o.trace && n > 0 {
			routes = &routeSpans{}
		}
		t := time.Now()
		r, err := runFleetRep(cl, o.seed, routes)
		if err != nil {
			c.note(false, "repetition %d: %v", n, err)
			break
		}
		reps = append(reps, r)
		last = time.Since(t)
		switch {
		case routes != nil:
			traced = append(traced, fleetLayers(r, routes))
		case n == 0:
			base = r
		}
		setups = append(setups, r.setupCPU.Seconds())
		rates = append(rates, float64(r.served)/r.runCPU.Seconds())
		allocs = append(allocs, float64(r.allocBytes)/float64(r.served)/(1<<10))
		if n == fleetMinReps-1 {
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	want, err := fleetReference(o.seed)
	if err != nil {
		return nil, err
	}
	verifyFleet(c, reps, want)
	if len(reps) == 0 || base.final == nil {
		return map[string]metric{}, nil
	}
	if o.trace {
		out := medians(traced)
		out["trace.untraced_run_ms"] = metric{ms(base.run), "ms"}
		if len(traced) > 0 {
			out["trace.overhead_frac"] = metric{out["trace.run_ms"].Value/ms(base.run) - 1, "ratio"}
		}
		return out, nil
	}
	fin := base.final
	served := 0.0
	if fin.Totals.Events > 0 {
		served = 1 - float64(fin.Totals.NoSpace)/float64(fin.Totals.Events)
	}
	return map[string]metric{
		"setup_s":                 {median(setups), "s"},
		"served_events_per_cpu_s": {median(rates), "1/s"},
		"peak_rss_mb":             {rss, "MiB"},
		"alloc_kib_per_served":    {median(allocs), "KiB"},
		"write_amp":               {fin.Dist.WriteAmp.Mean, "ratio"},
		"served_frac":             {served, "ratio"},
	}, nil
}

// fleetLayers is one traced repetition's per-layer figures. Shard
// replays run inside sos.Fleet, out of reach of the benchmark's
// wrappers, so the fleet reports route times and fleet-wide counts.
func fleetLayers(r fleetRep, rs *routeSpans) map[string]float64 {
	l := map[string]float64{
		"trace.run_ms":        ms(r.run),
		"fleet.shard_replays": float64(r.replays),
		"fleetd.create_ms":    rs.create.ms(),
		"fleetd.advance_ms":   rs.advance.ms(),
		"fleetd.report_ms":    rs.report.ms(),
		"fleetd.metrics_ms":   rs.metrics.ms(),
	}
	if f := r.final; f != nil {
		l["core.no_space"] = float64(f.Totals.NoSpace)
		l["device.reads"] = float64(f.Totals.Reads)
		l["device.writes"] = float64(f.Totals.Writes)
		l["device.max_wear_pct"] = f.Dist.MaxWearFrac.Max * 100
	}
	return l
}
