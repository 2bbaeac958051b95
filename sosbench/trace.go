package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sos"
	"sos/internal/carbon"
	"sos/internal/classify"
	"sos/internal/core"
	"sos/internal/device"
	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/fs"
	"sos/internal/metrics"
	"sos/internal/sim"
	"sos/internal/workload"
)

// span accumulates the busy time and call count of one layer boundary.
// It is safe for concurrent use: the batched read path decodes on
// several workers at once, so ecc spans sum busy time across them.
type span struct{ ns, n atomic.Int64 }

func (s *span) since(t time.Time) { s.ns.Add(int64(time.Since(t))); s.n.Add(1) }
func (s *span) ms() float64       { return float64(s.ns.Load()) / 1e6 }
func (s *span) count() float64    { return float64(s.n.Load()) }

// tracedScheme wraps the SYS stream's Reed-Solomon scheme, timing and
// counting every encode and decode. It implements ecc.IntoEncoder and
// ecc.IntoDecoder, so the batched datapath keeps its in-place,
// allocation-free encode and decode.
type tracedScheme struct {
	ecc.Scheme
	into ecc.IntoEncoder
	in   ecc.IntoDecoder

	encode, decode                  span
	clean, corrected, uncorrectable atomic.Int64
	busy                            wallClock
}

// wallClock measures the wall time during which at least one call is
// in flight, so overlapping calls on parallel workers count once.
type wallClock struct {
	mu     sync.Mutex
	active int
	since  time.Time
	total  time.Duration
}

func (w *wallClock) enter() time.Time {
	now := time.Now()
	w.mu.Lock()
	if w.active == 0 {
		w.since = now
	}
	w.active++
	w.mu.Unlock()
	return now
}

func (w *wallClock) exit() {
	now := time.Now()
	w.mu.Lock()
	if w.active--; w.active == 0 {
		w.total += now.Sub(w.since)
	}
	w.mu.Unlock()
}

func (w *wallClock) ms() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return ms(w.total)
}

var (
	_ ecc.IntoEncoder = (*tracedScheme)(nil)
	_ ecc.IntoDecoder = (*tracedScheme)(nil)
)

func newTracedScheme(s ecc.Scheme) (*tracedScheme, error) {
	into, ok1 := s.(ecc.IntoEncoder)
	in, ok2 := s.(ecc.IntoDecoder)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("scheme %s lacks the in-place encode/decode paths", s.Name())
	}
	return &tracedScheme{Scheme: s, into: into, in: in}, nil
}

func (t *tracedScheme) Encode(data []byte) ([]byte, error) {
	defer t.encoded(t.busy.enter())
	return t.Scheme.Encode(data)
}

func (t *tracedScheme) EncodeInto(dst, data []byte) (int, error) {
	defer t.encoded(t.busy.enter())
	return t.into.EncodeInto(dst, data)
}

func (t *tracedScheme) encoded(start time.Time) {
	t.busy.exit()
	t.encode.since(start)
}

func (t *tracedScheme) Decode(stored []byte) ([]byte, int, error) {
	start := t.busy.enter()
	data, corrected, err := t.Scheme.Decode(stored)
	t.decoded(start, corrected, err)
	return data, corrected, err
}

func (t *tracedScheme) DecodeInPlace(stored []byte) ([]byte, int, error) {
	start := t.busy.enter()
	data, corrected, err := t.in.DecodeInPlace(stored)
	t.decoded(start, corrected, err)
	return data, corrected, err
}

func (t *tracedScheme) decoded(start time.Time, corrected int, err error) {
	t.busy.exit()
	t.decode.since(start)
	t.corrected.Add(int64(corrected))
	switch {
	case err != nil:
		t.uncorrectable.Add(1)
	case corrected == 0:
		t.clean.Add(1)
	}
}

// tracedClassifier times Score calls of the engine's classifier.
type tracedClassifier struct {
	classify.Classifier
	score span
}

func (t *tracedClassifier) Score(meta classify.FileMeta) float64 {
	defer t.score.since(time.Now())
	return t.Classifier.Score(meta)
}

// tracedGen times the workload generator.
type tracedGen struct {
	workload.Generator
	next span
}

func (t *tracedGen) Next() (workload.Event, bool) {
	defer t.next.since(time.Now())
	return t.Generator.Next()
}

// tracedStack is the sos.System stack assembled by hand, as sos's build
// does (device.New → fs.New → classifier training → core.New), with
// the wrappers above in place.
type tracedStack struct {
	clock   *sim.Clock
	eng     *core.Engine
	ecc     *tracedScheme
	cls     *tracedClassifier
	trainMs float64
}

func (w simWorkload) buildTraced(seed uint64) (*tracedStack, error) {
	if seed == 0 {
		seed = 1 // sos.Config's default
	}
	clock := &sim.Clock{}
	streams := device.SOSStreams()
	ts, err := newTracedScheme(streams[0].Scheme)
	if err != nil {
		return nil, err
	}
	streams[0].Scheme = ts
	dev, err := device.New(device.Config{
		Geometry:       device.DefaultGeometry(),
		Tech:           flash.PLC,
		Streams:        streams,
		Backend:        w.backend,
		Clock:          clock,
		Seed:           seed,
		EnduranceSigma: 0.1,
		Queues:         w.queues,
		Workers:        w.parallel,
		ReadWorkers:    w.readWorkers,
	})
	if err != nil {
		return nil, err
	}
	fsys, err := fs.New(dev)
	if err != nil {
		return nil, err
	}

	trainStart := time.Now()
	corpus, err := classify.GenerateCorpus(sim.NewRNG(seed+0xc0de), 8000)
	if err != nil {
		return nil, err
	}
	lr := &classify.Logistic{}
	if err := lr.Train(corpus.Metas, corpus.Labels); err != nil {
		return nil, err
	}
	ccfg := core.Config{
		FS:        fsys,
		Audit:     w.audit,
		AuditSeed: seed + 0xa0d17,
		Placement: w.placement,
	}
	if w.placement == sos.PlacementLongevity {
		lrng := sim.NewRNG(seed + 0x11fe)
		lc, err := classify.GenerateCorpus(lrng, 8000)
		if err != nil {
			return nil, err
		}
		lc.GenerateLifetimes(lrng)
		ll := &classify.LinearLifetime{}
		if err := ll.TrainLifetime(lc.Metas, lc.LifetimeDays); err != nil {
			return nil, err
		}
		if ccfg.LifetimeBins, err = classify.CalibrateBins(lc.LifetimeDays); err != nil {
			return nil, err
		}
		ccfg.Lifetime = ll
	}
	trainMs := ms(time.Since(trainStart))

	cls := &tracedClassifier{Classifier: lr}
	ccfg.Classifier = cls
	eng, err := core.New(ccfg)
	if err != nil {
		return nil, err
	}
	return &tracedStack{clock: clock, eng: eng, ecc: ts, cls: cls, trainMs: trainMs}, nil
}

// coreSpans times the engine calls the event loop makes.
type coreSpans struct {
	tick, create, update, read, del span
	readUs                          []float64
}

// run is core.Run's event loop, driven over the public Engine calls so
// each call is timed. It must stay step-for-step equal to core.Run:
// the traced report is checked against the untraced one.
func (st *tracedStack) run(gen workload.Generator, rc core.RunConfig, cs *coreSpans) (outcome, error) {
	e, clock := st.eng, st.clock
	const sampleEvery = 30 * sim.Day
	var o outcome
	var capSeries, usedSeries, avgWear, maxWear, degraded metrics.Series
	idMap := make(map[int64]fs.FileID)
	nextSample := clock.Now()
	sample := func() {
		days := clock.Now().Days()
		used, capacity := e.FS().Usage()
		smart := e.Device().Smart()
		capSeries.Add(days, float64(capacity))
		usedSeries.Add(days, float64(used))
		avgWear.Add(days, smart.AvgWearFrac)
		maxWear.Add(days, smart.MaxWearFrac)
		degraded.Add(days, float64(e.Stats().DegradedReads))
	}
	for {
		ev, ok := gen.Next()
		if !ok {
			break
		}
		if ev.At > clock.Now() {
			clock.SetNow(ev.At)
		}
		for clock.Now() >= nextSample {
			sample()
			nextSample += sampleEvery
		}
		t := time.Now()
		err := e.Tick()
		cs.tick.since(t)
		if err != nil {
			return o, fmt.Errorf("tick at %v: %w", clock.Now(), err)
		}
		o.events++

		switch ev.Kind {
		case workload.EvCreate:
			var payload []byte
			if rc.PayloadFor != nil {
				payload = rc.PayloadFor(ev)
			}
			t := time.Now()
			id, err := e.CreateFile(ev.Meta, payload, ev.Size, ev.TrueLabel)
			cs.create.since(t)
			switch {
			case errors.Is(err, fs.ErrNoSpace):
				o.noSpace++
			case errors.Is(err, fs.ErrExists):
			case err != nil:
				return o, fmt.Errorf("create %q: %w", ev.Meta.Path, err)
			default:
				idMap[ev.FileID] = id
			}
		case workload.EvUpdate:
			id, ok := idMap[ev.FileID]
			if !ok {
				o.skipped++
				continue
			}
			t := time.Now()
			err := e.UpdateFile(id, nil, ev.Size)
			cs.update.since(t)
			switch {
			case errors.Is(err, fs.ErrNoSpace):
				o.noSpace++
			case errors.Is(err, core.ErrNotTracked):
				o.skipped++
			case err != nil:
				return o, fmt.Errorf("update %d: %w", id, err)
			}
		case workload.EvRead:
			id, ok := idMap[ev.FileID]
			if !ok {
				o.skipped++
				continue
			}
			t := time.Now()
			_, err := e.ReadFileBatch(id)
			d := time.Since(t)
			cs.read.ns.Add(int64(d))
			cs.read.n.Add(1)
			cs.readUs = append(cs.readUs, float64(d)/1e3)
			if err != nil {
				if errors.Is(err, core.ErrNotTracked) || errors.Is(err, fs.ErrNotFound) {
					o.skipped++
					continue
				}
				return o, fmt.Errorf("read %d: %w", id, err)
			}
		case workload.EvDelete:
			id, ok := idMap[ev.FileID]
			if !ok {
				o.skipped++
				continue
			}
			t := time.Now()
			err := e.DeleteFile(id)
			cs.del.since(t)
			if err != nil && !errors.Is(err, core.ErrNotTracked) {
				return o, fmt.Errorf("delete %d: %w", id, err)
			}
			delete(idMap, ev.FileID)
		}
	}
	sample()
	o.elapsed = clock.Now()
	o.smart = e.Device().Smart()
	o.stats = e.Stats()
	if a := e.Auditor(); a != nil {
		as := a.Stats()
		o.audit = &as
	}
	kg, err := carbon.DeviceEmbodiedKg(float64(e.Device().CapacityBytes())/1e9, carbon.SOSLayout())
	if err != nil {
		return o, err
	}
	o.embodiedKg = kg
	return o, nil
}

// tracedRep runs one input on the traced stack. Its layer figures
// are sums (times and counts), so a pass adds them up across inputs;
// finishLayers derives the ratios.
func (w simWorkload) tracedRep(seed uint64) (rep, error) {
	runtime.GC() // as untraced repetitions do
	st, err := w.buildTraced(seed)
	if err != nil {
		return rep{}, err
	}
	g, err := w.generator(seed)
	if err != nil {
		return rep{}, err
	}
	gen := &tracedGen{Generator: g}
	var cs coreSpans
	t1 := time.Now()
	o, err := st.run(gen, w.runConfig(), &cs)
	run := time.Since(t1)
	if err != nil {
		return rep{}, err
	}
	coreMs := cs.tick.ms() + cs.create.ms() + cs.update.ms() + cs.read.ms() + cs.del.ms()
	ts := st.ecc
	l := map[string]float64{
		"trace.run_ms":          ms(run),
		"workload.next_ms":      gen.next.ms(),
		"core.tick_ms":          cs.tick.ms(),
		"core.tick_n":           cs.tick.count(),
		"core.create_ms":        cs.create.ms(),
		"core.create_n":         cs.create.count(),
		"core.update_ms":        cs.update.ms(),
		"core.update_n":         cs.update.count(),
		"core.read_ms":          cs.read.ms(),
		"core.read_n":           cs.read.count(),
		"core.delete_ms":        cs.del.ms(),
		"core.delete_n":         cs.del.count(),
		"core.no_space":         float64(o.noSpace),
		"core.skipped":          float64(o.skipped),
		"classify.train_ms":     st.trainMs,
		"classify.score_ms":     st.cls.score.ms(),
		"classify.score_n":      st.cls.score.count(),
		"ecc.encode_ms":         ts.encode.ms(),
		"ecc.encode_n":          ts.encode.count(),
		"ecc.decode_ms":         ts.decode.ms(),
		"ecc.decode_n":          ts.decode.count(),
		"ecc.clean":             float64(ts.clean.Load()),
		"ecc.corrected":         float64(ts.corrected.Load()),
		"ecc.uncorrectable":     float64(ts.uncorrectable.Load()),
		"ecc.wall_ms":           ts.busy.ms(),
		"datapath.self_ms":      coreMs - ts.busy.ms() - st.cls.score.ms(),
		"device.reads":          float64(o.smart.Reads),
		"device.writes":         float64(o.smart.Writes),
		"device.read_retries":   float64(o.smart.ReadRetries),
		"device.degraded_reads": float64(o.smart.DegradedReads),
		"device.max_wear_pct":   o.smart.MaxWearFrac * 100,
	}
	be := o.smart.Backend // "ftl" or "zns"
	l[be+".programs"] = float64(o.smart.FTL.FlashPrograms)
	l[be+".gc_runs"] = float64(o.smart.FTL.GCRuns)
	l[be+".gc_moves"] = float64(o.smart.FTL.GCMoves)
	l[be+".static_wl_moves"] = float64(o.smart.FTL.StaticWLMoves)
	if as := o.audit; as != nil {
		l["audit.passes"] = float64(as.Passes)
		l["audit.slices"] = float64(as.SlicesScanned)
		l["audit.clean"] = float64(as.Clean)
	}
	return rep{run: run, out: o, report: w.render(o), layers: l, readUs: cs.readUs}, nil
}

// addLayers adds one input's figures into a pass's; the wear of the
// most-worn block is a maximum, not a sum.
func addLayers(sum, l map[string]float64) {
	for k, v := range l {
		if k == "device.max_wear_pct" {
			sum[k] = max(sum[k], v)
			continue
		}
		sum[k] += v
	}
}

// finishLayers derives a pass's ratios from its sums.
func finishLayers(l map[string]float64, readUs []float64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l["core.read_p99_us"] = percentile(readUs, 0.99)
	l["ecc.decode_share"] = ratio(l["ecc.decode_ms"], l["trace.run_ms"])
	l["ecc.decode_clean_frac"] = ratio(l["ecc.clean"], l["ecc.decode_n"])
	l["audit.clean_frac"] = ratio(l["audit.clean"], l["audit.slices"])
}

// runTraced is the -trace 1 run: one untraced pass as the overhead
// baseline, then traced passes for the rest of the window. Every
// report, traced or not, must equal sossim's.
func (w simWorkload) runTraced(o runOpts, c *checks, seeds []uint64, refs [][]byte) (map[string]metric, error) {
	start := time.Now()
	base := w.untracedPass(o, c, seeds, refs)
	var passes []map[string]float64
	lastDur := time.Since(start)
	for n := 0; o.fits(start, n, lastDur); n++ {
		t := time.Now()
		sum := map[string]float64{}
		var readUs []float64
		for i, seed := range seeds {
			r, err := w.tracedRep(seed)
			if err != nil {
				c.note(false, "traced seed %d: %v", seed, err)
				continue
			}
			c.note(bytes.Equal(r.report, refs[i]), "traced seed %d: report differs from sossim:\n%s\nwant:\n%s", seed, r.report, refs[i])
			addLayers(sum, r.layers)
			readUs = append(readUs, r.readUs...)
		}
		finishLayers(sum, readUs)
		passes = append(passes, sum)
		lastDur = time.Since(t)
	}
	out := medians(passes)
	out["trace.untraced_run_ms"] = metric{ms(base.run), "ms"}
	if base.run > 0 {
		out["trace.overhead_frac"] = metric{out["trace.run_ms"].Value/ms(base.run) - 1, "ratio"}
	}
	return out, nil
}

// medians folds per-repetition layer figures into per-metric medians,
// with units from the perLayer list.
func medians(reps []map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, d := range perLayer {
		var xs []float64
		for _, r := range reps {
			if v, ok := r[d.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			out[d.name] = metric{median(xs), d.unit}
		}
	}
	return out
}
