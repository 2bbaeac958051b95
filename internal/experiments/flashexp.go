package experiments

import (
	"fmt"

	"sos/internal/device"
	"sos/internal/flash"
	"sos/internal/metrics"
	"sos/internal/sim"
)

func init() {
	register("E2", "§2.2: endurance ladder SLC..PLC and pseudo-modes", runE2)
	register("E12", "§4.5: PLC read latency and error-tolerant reads", runE12)
}

// measureEnduranceEmpirical cycles a block in the given mode and
// reports the first PEC (probed in steps) at which a page written then
// aged by `retention` reads back with RBER at or above the end-of-life
// threshold. It exercises the full chip path: erase wear, program,
// retention, read-time error injection.
func measureEnduranceEmpirical(mode flash.Mode, retention sim.Time, seed uint64) (int, error) {
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 4096, Spare: 1024, PagesPerBlock: 5, Blocks: 1},
		Tech:     mode.Phys,
		Clock:    clock,
		Seed:     seed,
	})
	if err != nil {
		return 0, err
	}
	if mode.IsPseudo() {
		if err := chip.SetMode(0, mode); err != nil {
			return 0, err
		}
	}
	rated := mode.RatedPEC()
	step := rated / 25
	if step < 1 {
		step = 1
	}
	payload := make([]byte, 4096)
	pec := 0
	for pec <= rated*3 {
		for i := 0; i < step; i++ {
			if err := chip.Erase(0); err != nil {
				// A hard erase failure past the rating is itself the
				// end-of-life signal.
				return pec, nil
			}
			pec++
		}
		if err := chip.Program(0, 0, payload, 0); err != nil {
			// Program-status failure is likewise a hard EOL signal.
			return pec, nil
		}
		clock.Advance(retention)
		res, err := chip.Read(0, 0)
		if err != nil {
			return 0, err
		}
		rber := float64(res.FlippedTotal) / float64(4096*8)
		if rber >= flash.EOLRBER {
			return pec, nil
		}
	}
	return pec, nil
}

func runE2(quick bool) (*Result, error) {
	em := flash.DefaultErrorModel()
	modes := []flash.Mode{
		flash.NativeMode(flash.SLC),
		flash.NativeMode(flash.MLC),
		flash.NativeMode(flash.TLC),
		flash.NativeMode(flash.QLC),
		flash.NativeMode(flash.PLC),
	}
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		return nil, err
	}
	pTLC, err := flash.PseudoMode(flash.PLC, 3)
	if err != nil {
		return nil, err
	}
	modes = append(modes, pQLC, pTLC)

	t := &metrics.Table{Header: []string{
		"mode", "bits/cell", "rated_PEC", "model_endurance@0", "model_endurance@1y", "empirical_PEC@1y",
	}}
	// Each empirical cycling campaign owns its chip and clock; fan the
	// modes out and emit rows in ladder order.
	emps, err := expMap(len(modes), func(i int) (int, error) {
		m := modes[i]
		// Empirical cycling for SLC/MLC is slow in quick mode; the
		// model columns cover them there.
		if quick && m.Phys.RatedPEC() > flash.TLC.RatedPEC() {
			return 0, nil
		}
		return measureEnduranceEmpirical(m, sim.Year, 42)
	})
	if err != nil {
		return nil, err
	}
	for i, m := range modes {
		e0 := em.EnduranceAt(m, 0)
		e1 := em.EnduranceAt(m, sim.Year)
		empCell := "-"
		if emps[i] > 0 {
			empCell = fmt.Sprintf("%d", emps[i])
		}
		t.AddRow(m.String(), m.OpBits, m.RatedPEC(), e0, e1, empCell)
	}
	ratio := func(a, b flash.Tech) float64 {
		return float64(a.RatedPEC()) / float64(b.RatedPEC())
	}
	return &Result{
		ID: "E2", Title: "endurance ladder",
		Tables: []*metrics.Table{t},
		Notes: []string{
			fmt.Sprintf("TLC/PLC endurance ratio %.1fx (paper: 6-10x); QLC/PLC %.1fx (paper: ~2x); SLC ~100K, QLC ~1K PEC as cited",
				ratio(flash.TLC, flash.PLC), ratio(flash.QLC, flash.PLC)),
			"pseudo-QLC on PLC recovers most of native QLC's endurance — the basis of the SYS partition",
		},
	}, nil
}

func runE12(quick bool) (*Result, error) {
	p := device.DefaultLatencyProfile()
	t := &metrics.Table{Header: []string{
		"mode", "tR_us", "tProg_us", "read_at_EOL_strict_us", "read_at_EOL_tolerant_us", "tolerant_speedup_x",
	}}
	modes := []flash.Mode{
		flash.NativeMode(flash.TLC),
		flash.NativeMode(flash.QLC),
		flash.NativeMode(flash.PLC),
	}
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		return nil, err
	}
	modes = append(modes, pQLC)
	highRBER := flash.EOLRBER * 0.9
	for _, m := range modes {
		strict := p.ReadLatency(m, highRBER, false)
		tolerant := p.ReadLatency(m, highRBER, true)
		t.AddRow(m.String(),
			float64(p.ReadLatency(m, 0, false))/1000,
			float64(p.ProgramLatency(m))/1000,
			float64(strict)/1000,
			float64(tolerant)/1000,
			float64(strict)/float64(tolerant))
	}

	// Measured through a device: mean read latency on SYS (strict, RS)
	// vs SPARE (tolerant) after heavy aging.
	clock := &sim.Clock{}
	dev, err := device.NewSOS(flash.Geometry{
		PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 16,
	}, 9, clock)
	if err != nil {
		return nil, err
	}
	chip := dev.Chip()
	// Age blocks to ~85% of pseudo-QLC's rated endurance: the regime
	// where the protected read path climbs the retry ladder. 600 cycles
	// exceeds native PLC's rating, so sporadic erase-status failures
	// are expected and retried.
	for b := 0; b < chip.Blocks(); b++ {
		if err := cycleBlock(chip, b, 600); err != nil {
			return nil, err
		}
	}
	payload := make([]byte, 512)
	// Many pages per partition: a single page's error fate is frozen at
	// its first read (errors are persistent), so latency must be
	// averaged across a population.
	pages := 40
	if quick {
		pages = 12
	}
	for i := 0; i < pages; i++ {
		if _, err := dev.Write(device.BatchWrite{LBA: int64(1000 + i), Data: payload, Class: device.ClassSys}); err != nil {
			return nil, err
		}
		if _, err := dev.Write(device.BatchWrite{LBA: int64(2000 + i), Data: payload, Class: device.ClassSpare}); err != nil {
			return nil, err
		}
	}
	clock.Advance(2 * sim.Year)
	var sysLat, spareLat sim.Time
	for i := 0; i < pages; i++ {
		rs, err := dev.Read(int64(1000 + i))
		if err != nil {
			return nil, err
		}
		sysLat += rs.Latency
		rp, err := dev.Read(int64(2000 + i))
		if err != nil {
			return nil, err
		}
		spareLat += rp.Latency
	}
	n := pages
	meas := &metrics.Table{Header: []string{"partition", "mean_read_us_aged"}}
	meas.AddRow("SYS (pQLC, RS, retries)", float64(sysLat)/float64(n)/1000)
	meas.AddRow("SPARE (PLC, tolerant)", float64(spareLat)/float64(n)/1000)
	return &Result{
		ID: "E12", Title: "read latency and error tolerance",
		Tables: []*metrics.Table{t, meas},
		Notes: []string{
			"PLC reads are slower than TLC, but error-tolerant reads skip the retry ladder entirely",
			"on heavily-aged media the protected SYS read pays for retries while the approximate SPARE read stays at its base latency — 'error tolerance for degraded data can further reduce read times' (§4.5)",
		},
	}, nil
}
