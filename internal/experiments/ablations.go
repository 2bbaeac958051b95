package experiments

import (
	"errors"
	"fmt"

	"sos/internal/device"
	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/metrics"
	"sos/internal/sim"
	"sos/internal/storage"
)

func init() {
	register("E8", "§4.3 [73]: wear leveling on SPARE considered harmful", runE8)
	register("E9", "§4.3 [74,76]: capacity variance and pseudo-TLC resuscitation", runE9)
}

// spareOnlyFTL builds a single-stream PLC translation layer with
// approximate storage and the given wear-leveling/resuscitation
// settings. The stream-FTL kind keeps E8/E9 results identical to the
// pre-backend-split runs.
func spareOnlyFTL(wl bool, resuscitate []int, blocks int, seed uint64) (storage.Backend, *sim.Clock, error) {
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry:       flash.Geometry{PageSize: 512, Spare: 64, PagesPerBlock: 10, Blocks: blocks},
		Tech:           flash.PLC,
		Clock:          clock,
		Seed:           seed,
		EnduranceSigma: 0.12,
	})
	if err != nil {
		return nil, nil, err
	}
	f, err := device.NewBackend(device.BackendConfig{
		Kind:   storage.KindFTL,
		Medium: chip,
		Streams: []storage.StreamPolicy{{
			Name:         "spare",
			Mode:         flash.NativeMode(flash.PLC),
			Scheme:       ecc.None{},
			WearLeveling: wl,
			Resuscitate:  resuscitate,
			// SOS spare policy: run blocks past the conservative
			// rating; degradation is tolerated, not avoided.
			WearRetireFrac: 1.15,
		}},
	})
	if err != nil {
		return nil, nil, err
	}
	return f, clock, nil
}

// wearOutRun hammers the FTL with a hot/cold write mix (70% of writes
// hit 10% of the pages) until the device can no longer accept writes or
// the write budget runs out. It returns milestone write counts and the
// capacity curve.
type wearOutResult struct {
	writesToFirstRetire int64
	writesTo75          int64 // capacity fell below 75% of initial
	writesTo50          int64
	totalWrites         int64
	resuscitations      int64
	retired             int64
	capacityCurve       metrics.Series
}

func wearOutRun(f storage.Backend, budget int64, seed uint64) (*wearOutResult, error) {
	rng := sim.NewRNG(seed)
	initial := f.UsablePages()
	res := &wearOutResult{}
	res.capacityCurve.Name = "usable_pages"

	// Working set sized to ~60% of capacity so GC always has headroom.
	// Half of it is truly cold (written once, below), the rest receives
	// the churn — the skew [73] exploits.
	nLPA := int64(float64(initial) * 0.6)
	if nLPA < 10 {
		nLPA = 10
	}
	cold := nLPA / 2
	for lpa := int64(0); lpa < cold; lpa++ {
		if err := f.Write(storage.BatchOp{LPA: lpa, DataLen: 256}); err != nil {
			return nil, err
		}
	}
	hot := (nLPA - cold) / 5
	if hot < 1 {
		hot = 1
	}
	var writes int64
	for writes < budget {
		var lpa int64
		if rng.Bool(0.8) {
			lpa = cold + rng.Int63n(hot)
		} else {
			lpa = cold + hot + rng.Int63n(nLPA-cold-hot)
		}
		err := f.Write(storage.BatchOp{LPA: lpa, DataLen: 256})
		if errors.Is(err, storage.ErrNoSpace) {
			break
		}
		if err != nil {
			return nil, err
		}
		writes++
		if writes%2000 == 0 {
			res.capacityCurve.Add(float64(writes), float64(f.UsablePages()))
		}
		st := f.Stats()
		if st.Retired > 0 && res.writesToFirstRetire == 0 {
			res.writesToFirstRetire = writes
		}
		pages := f.UsablePages()
		if res.writesTo75 == 0 && pages < initial*3/4 {
			res.writesTo75 = writes
		}
		if res.writesTo50 == 0 && pages < initial/2 {
			res.writesTo50 = writes
			break // milestone reached; the curve's story is told
		}
	}
	st := f.Stats()
	res.totalWrites = writes
	res.resuscitations = st.Resuscitated
	res.retired = st.Retired
	return res, nil
}

func runE8(quick bool) (*Result, error) {
	blocks := 24
	budget := int64(24 * 10 * 500 * 2) // ~2x total rated endurance in page writes
	if quick {
		blocks = 12
		budget = int64(12 * 10 * 500)
	}
	t := &metrics.Table{Header: []string{
		"wear_leveling", "writes_to_first_retire", "writes_to_75%cap", "writes_to_50%cap", "total_writes", "retired_blocks",
	}}
	// The two arms are independent wear-out campaigns with fixed seeds;
	// fan them out and emit rows in arm order.
	arms := []bool{true, false}
	results, err := expMap(len(arms), func(i int) (*wearOutResult, error) {
		f, _, err := spareOnlyFTL(arms[i], nil, blocks, 77)
		if err != nil {
			return nil, err
		}
		return wearOutRun(f, budget, 99)
	})
	if err != nil {
		return nil, err
	}
	for i, wl := range arms {
		r := results[i]
		t.AddRow(fmt.Sprintf("%v", wl), milestone(r.writesToFirstRetire),
			milestone(r.writesTo75), milestone(r.writesTo50), r.totalWrites, r.retired)
	}
	notes := []string{
		"with WL the blocks wear in lockstep: retirement starts late but arrives en masse (capacity cliff)",
		"without WL wear concentrates: first retirement comes earlier, but cold blocks stay healthy and capacity declines gradually — the [73] argument for disabling WL on SPARE",
	}
	if len(results) == 2 && results[0].writesToFirstRetire > 0 && results[1].writesToFirstRetire > 0 {
		notes = append(notes, fmt.Sprintf(
			"measured: first retirement at %d (WL) vs %d (no WL) writes",
			results[0].writesToFirstRetire, results[1].writesToFirstRetire))
	}
	return &Result{ID: "E8", Title: "wear-leveling ablation on SPARE", Tables: []*metrics.Table{t}, Notes: notes}, nil
}

func milestone(v int64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

func runE9(quick bool) (*Result, error) {
	blocks := 16
	budget := int64(16 * 10 * 500 * 3)
	if quick {
		blocks = 8
		budget = int64(8 * 10 * 500 * 2)
	}
	t := &metrics.Table{Header: []string{
		"resuscitation", "total_writes", "resuscitated", "retired", "final_usable_pages",
	}}
	type run struct {
		name   string
		ladder []int
	}
	runs := []run{{"off", nil}, {"pTLC", []int{3}}, {"pTLC->pMLC", []int{3, 2}}}
	type e9Vals struct {
		res         *wearOutResult
		usablePages int
	}
	vals, err := expMap(len(runs), func(i int) (e9Vals, error) {
		f, _, err := spareOnlyFTL(false, runs[i].ladder, blocks, 55)
		if err != nil {
			return e9Vals{}, err
		}
		res, err := wearOutRun(f, budget, 66)
		if err != nil {
			return e9Vals{}, err
		}
		return e9Vals{res, f.UsablePages()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		v := vals[i]
		t.AddRow(r.name, v.res.totalWrites, v.res.resuscitations, v.res.retired, v.usablePages)
	}
	return &Result{
		ID: "E9", Title: "capacity variance with block resuscitation",
		Tables: []*metrics.Table{t},
		Notes: []string{
			"resuscitating worn PLC blocks at reduced density extends total writes sustained before the 50%-capacity milestone",
			"capacity declines in steps (native PLC pages -> pTLC pages -> retirement), matching the §4.3 capacity-variance design",
		},
	}, nil
}
