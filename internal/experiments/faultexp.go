package experiments

import (
	"fmt"

	"sos/internal/device"
	"sos/internal/fault"
	"sos/internal/flash"
	"sos/internal/metrics"
	"sos/internal/torture"
)

func init() {
	register("E16", "robustness extension: fault injection, read salvage, and crash recovery", runE16)
}

// e16Geometry keeps the fault sweep small enough that every rate runs
// the same workload in milliseconds.
func e16Geometry() flash.Geometry {
	return flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 16, Blocks: 48}
}

// e16Trial drives one device under a read-fault plan and reports the
// ladder's telemetry.
type e16Row struct {
	label       string
	reads       int64
	retries     int64
	salvaged    int64
	hardFaults  int64
	quarantined int64
	degraded    int64
	failed      int64
}

func e16Trial(label string, plan *fault.Plan, quick bool) (e16Row, error) {
	row := e16Row{label: label}
	dev, err := device.New(device.Config{
		Geometry: e16Geometry(),
		Tech:     flash.PLC,
		Streams:  device.SOSStreams(),
		Seed:     93,
		Fault:    plan,
	})
	if err != nil {
		return row, err
	}
	lpas := int64(64)
	rounds := 40
	if quick {
		rounds = 12
	}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for lpa := int64(0); lpa < lpas; lpa++ {
		class := device.ClassSys
		if lpa%2 == 1 {
			class = device.ClassSpare
		}
		if _, err := dev.Write(device.BatchWrite{LBA: lpa, Data: payload, Class: class}); err != nil {
			return row, err
		}
	}
	for r := 0; r < rounds; r++ {
		for lpa := int64(0); lpa < lpas; lpa++ {
			res, err := dev.Read(lpa)
			if err != nil {
				row.failed++
				continue
			}
			if res.Degraded {
				row.degraded++
			}
		}
	}
	s := dev.Smart()
	row.reads = s.Reads
	row.retries = s.ReadRetries
	row.salvaged = s.SalvagedReads
	row.hardFaults = s.HardReadFaults
	row.quarantined = s.QuarantinedBlocks
	return row, nil
}

// runE16 is a robustness extension beyond the paper's figures: it
// quantifies how the degradation-tolerant stack behaves when the medium
// actively fails, not just when it silently decays.
func runE16(quick bool) (*Result, error) {
	// Table 1: fault-plan sweep through the device retry/salvage ladder:
	// transient probabilistic faults, plus an op-indexed burst where the
	// interface hard-fails long enough to exhaust retries and trigger
	// relocation, salvage, and quarantine. Rows are independent trials
	// fanned across workers.
	specs := []struct {
		label string
		plan  *fault.Plan
	}{
		{"0", nil},
		{"1e-4", &fault.Plan{Seed: 93, ReadFaultProb: 1e-4}},
		{"1e-3", &fault.Plan{Seed: 93, ReadFaultProb: 1e-3}},
		{"1e-2", &fault.Plan{Seed: 93, ReadFaultProb: 1e-2}},
		{"burst", &fault.Plan{ReadFaultWindow: fault.Window{From: 200, To: 420}}},
	}
	rows, err := expMap(len(specs), func(i int) (e16Row, error) {
		return e16Trial(specs[i].label, specs[i].plan, quick)
	})
	if err != nil {
		return nil, err
	}
	ladder := &metrics.Table{Header: []string{
		"fault_plan", "reads", "retries", "salvaged", "hard_faults", "quarantined", "degraded", "failed_reads"}}
	for _, r := range rows {
		ladder.AddRow(r.label, r.reads, r.retries, r.salvaged,
			r.hardFaults, r.quarantined, r.degraded, r.failed)
	}

	// Table 2: the crash matrix — power cuts at sampled chip-op indices,
	// rebuild from OOB tags, contract verification.
	tcfg := torture.DefaultConfig()
	tcfg.Parallel = Parallelism()
	if quick {
		tcfg.Ops = 140
		tcfg.Cuts = 8
	}
	rep, err := torture.Run(tcfg)
	if err != nil {
		return nil, err
	}
	crash := &metrics.Table{Header: []string{
		"cuts", "torn", "recovered", "verified_pages", "sys_loss_B", "spare_loss_B", "silent_loss_B", "invariant_violations"}}
	crash.AddRow(rep.Cuts, rep.TornCuts, rep.Recovered, rep.VerifiedPages,
		rep.SysLossBytes, rep.SpareLossBytes, rep.SilentLossBytes, rep.InvariantViolations)

	return &Result{
		ID: "E16", Title: "fault injection, read salvage, and crash recovery",
		Tables: []*metrics.Table{ladder, crash},
		Notes: []string{
			"robustness extension, no paper figure: the paper treats degradation as the product; this measures behavior under outright faults",
			"SYS reads never fail silently or lose acked data; SPARE losses are reported (degraded), matching the approximate-storage contract",
			fmt.Sprintf("crash matrix: %d power cuts over %d chip ops, %d recoveries, %d contract violations",
				rep.Cuts, rep.TotalChipOps, rep.Recovered, rep.Violations()),
		},
	}, nil
}
