package ftl

import (
	"fmt"

	"sos/internal/datapath"
	"sos/internal/ecc"
	"sos/internal/obs"
	"sos/internal/storage"
)

// The multi-stream FTL is the storage backend the paper's device-side
// placement interface compiles down to.
var _ storage.Backend = (*FTL)(nil)

// Name identifies the backend kind for telemetry and the -backend flag.
func (f *FTL) Name() string { return "ftl" }

// SetCapacityCallback installs the capacity-variance callback
// (equivalent to assigning OnCapacityChange directly).
func (f *FTL) SetCapacityCallback(fn func(usablePages int)) {
	f.OnCapacityChange = fn
}

// Recover implements storage.Backend: it remounts a fresh FTL with the
// receiver's configuration over the receiver's medium and rebuilds the
// mapping tables from OOB tags. The receiver itself is the crashed
// instance and is not consulted beyond its configuration.
func (f *FTL) Recover() (storage.Backend, error) {
	nf, err := Recover(f.chip, f.origCfg)
	if err != nil {
		return nil, err
	}
	return nf, nil
}

// CheckInvariants implements storage.Backend over the package-level
// checker.
func (f *FTL) CheckInvariants() error { return CheckInvariants(f) }

// ReadBatch implements storage.Backend on the shared batched read
// engine (internal/datapath), resolving LPAs through the L2P table.
func (f *FTL) ReadBatch(ops []storage.BatchReadOp, fates []storage.BatchReadFate, queues, workers int) {
	f.rs.Run(f.runs, (*resolver)(f), ops, fates, queues, workers)
}

// resolver is the FTL's datapath.Resolver: the batched read engine's
// view of the L2P table, schemes, and read telemetry.
type resolver FTL

func (r *resolver) Resolve(lpa int64) (datapath.Loc, error) {
	m, ok := (*FTL)(r).lookup(lpa)
	if !ok {
		return datapath.Loc{}, ErrUnknownLPA
	}
	return datapath.Loc{Block: m.ppa.Block, Page: m.ppa.Page, Stream: m.stream, DataLen: m.dataLen, BaseFlips: m.baseFlips}, nil
}

func (r *resolver) Scheme(id StreamID) ecc.Scheme { return r.streams[id].Scheme }

func (r *resolver) ReadError(lpa int64, loc *datapath.Loc, err error) error {
	return fmt.Errorf("ftl: read %v: %w", PPA{Block: loc.Block, Page: loc.Page}, err)
}

func (r *resolver) Settled(lpa int64, loc *datapath.Loc, degraded bool) {
	r.obs.Record(obs.Event{Kind: obs.EvRead, LBA: lpa, Block: loc.Block, Page: loc.Page, Stream: int(loc.Stream), Aux: int64(loc.DataLen)})
	if degraded {
		r.degradedReads++
	}
}

func (r *resolver) Read(lpa int64) (ReadResult, error) { return (*FTL)(r).Read(lpa) }
