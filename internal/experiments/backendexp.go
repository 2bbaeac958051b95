package experiments

import (
	"errors"
	"fmt"

	"sos/internal/device"
	"sos/internal/flash"
	"sos/internal/metrics"
	"sos/internal/sim"
	"sos/internal/storage"
	"sos/internal/torture"
)

func init() {
	register("E17", "§4.3: streams vs zones — the same co-design over both host interfaces", runE17)
}

// e17Row is one backend's run under the identical seeded workload.
type e17Row struct {
	kind       storage.Kind
	writes     int64
	wa         float64
	wearGap    float64 // max - min block wear fraction
	degraded   int64
	capInitial int64
	capFinal   int64
	retired    int64
	rebuilt    bool // mid-run power cycle recovered all sampled data
}

// e17Trial churns a pre-worn device until the write budget (or the
// space) runs out, power-cycling once in the middle to prove recovery
// is part of normal service on this backend too.
func e17Trial(kind storage.Kind, quick bool) (e17Row, error) {
	row := e17Row{kind: kind}
	dev, err := device.New(device.Config{
		Geometry:      flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 16, Blocks: 48},
		Tech:          flash.PLC,
		Streams:       device.SOSStreams(),
		Seed:          41,
		Backend:       kind,
		BlocksPerZone: 4,
	})
	if err != nil {
		return row, err
	}
	row.capInitial = dev.CapacityBytes()
	// Age the medium close to its rating so reclamation decisions (and
	// eventually retirement) happen within a small write budget.
	if err := preWear(dev, 0.85); err != nil {
		return row, err
	}
	budget := int64(20000)
	if quick {
		budget = 6000
	}
	nLPA := int64(64)
	hot := nLPA / 8
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	rng := sim.NewRNG(67)
	written := make(map[int64]bool)
	for row.writes < budget {
		lpa := hot + rng.Int63n(nLPA-hot)
		if rng.Bool(0.7) {
			lpa = rng.Int63n(hot)
		}
		class := device.ClassSys
		if lpa%2 == 1 {
			class = device.ClassSpare
		}
		_, err := dev.Write(device.BatchWrite{LBA: lpa, Data: payload, Class: class})
		if errors.Is(err, storage.ErrNoSpace) {
			break
		}
		if err != nil {
			return row, err
		}
		written[lpa] = true
		row.writes++
		if row.writes == budget/2 {
			// Mid-run remount: both backends must rebuild from on-media
			// state and keep serving.
			if err := dev.PowerCycle(); err != nil {
				return row, fmt.Errorf("%v power cycle: %w", kind, err)
			}
			row.rebuilt = true
			// Ordered sweep: reads sample the RBER RNG, so map-order
			// iteration would make the run nondeterministic.
			for l := int64(0); l < nLPA; l++ {
				if !written[l] {
					continue
				}
				if _, err := dev.Read(l); err != nil {
					return row, fmt.Errorf("%v read %d after power cycle: %w", kind, l, err)
				}
			}
		}
		if row.writes%500 == 0 {
			for l := int64(0); l < nLPA; l++ {
				if !written[l] {
					continue
				}
				res, err := dev.Read(l)
				if err != nil {
					return row, err
				}
				if res.Degraded {
					row.degraded++
				}
			}
		}
	}
	s := dev.Smart()
	row.wa = s.WriteAmp
	row.capFinal = dev.CapacityBytes()
	row.retired = s.RetiredBlocks
	chip := dev.Chip()
	min, max := 1e18, 0.0
	for b := 0; b < chip.Blocks(); b++ {
		info, err := chip.Info(b)
		if err != nil {
			continue
		}
		if info.WearFrac < min {
			min = info.WearFrac
		}
		if info.WearFrac > max {
			max = info.WearFrac
		}
	}
	row.wearGap = max - min
	return row, nil
}

// runE17 mounts the same stack over both translation layers — the
// device-side multi-stream FTL and the host-side FTL over zones — and
// compares what §4.3 says should be equivalent co-design points: write
// amplification, wear spread, capacity variance, and crash behavior,
// under identical seeded workloads.
func runE17(quick bool) (*Result, error) {
	kinds := storage.Kinds()
	rows, err := expMap(len(kinds), func(i int) (e17Row, error) {
		return e17Trial(kinds[i], quick)
	})
	if err != nil {
		return nil, err
	}
	cmp := &metrics.Table{Header: []string{
		"backend", "host_writes", "write_amp", "wear_gap", "degraded_reads",
		"capacity_initial_B", "capacity_final_B", "retired_blocks", "rebuilt_midrun"}}
	for _, r := range rows {
		cmp.AddRow(r.kind.String(), r.writes, fmt.Sprintf("%.3f", r.wa),
			fmt.Sprintf("%.3f", r.wearGap), r.degraded,
			r.capInitial, r.capFinal, r.retired, r.rebuilt)
	}

	// Crash matrix per backend: the torture contract is
	// backend-independent; the numbers are not.
	crash := &metrics.Table{Header: []string{
		"backend", "cuts", "torn", "recovered", "verified_pages", "sys_loss_B", "silent_loss_B", "invariant_violations"}}
	creps, err := expMap(len(kinds), func(i int) (torture.Report, error) {
		tcfg := torture.DefaultConfig()
		tcfg.Backend = kinds[i]
		tcfg.Parallel = 1 // outer expMap already fans out
		if quick {
			tcfg.Ops = 140
			tcfg.Cuts = 8
		}
		return torture.Run(tcfg)
	})
	if err != nil {
		return nil, err
	}
	notes := []string{
		"same seeded workload, same stack; only the translation layer differs (streams: device-side FTL; zones: host-side FTL over append-only zones)",
		"zns reclaims and retires at zone granularity, so its capacity steps are coarser and its WA reflects whole-zone drains",
	}
	for i, rep := range creps {
		crash.AddRow(kinds[i].String(), rep.Cuts, rep.TornCuts, rep.Recovered, rep.VerifiedPages,
			rep.SysLossBytes, rep.SilentLossBytes, rep.InvariantViolations)
		if rep.Violations() != 0 {
			notes = append(notes, fmt.Sprintf("WARNING: %v backend shows %d contract violations", kinds[i], rep.Violations()))
		}
	}
	if len(rows) == 2 {
		notes = append(notes, fmt.Sprintf(
			"measured: WA %.3f (ftl) vs %.3f (zns); wear gap %.3f vs %.3f; capacity lost %d B vs %d B",
			rows[0].wa, rows[1].wa, rows[0].wearGap, rows[1].wearGap,
			rows[0].capInitial-rows[0].capFinal, rows[1].capInitial-rows[1].capFinal))
	}
	return &Result{
		ID: "E17", Title: "pluggable backends: multi-stream FTL vs zoned host FTL",
		Tables: []*metrics.Table{cmp, crash},
		Notes:  notes,
	}, nil
}
