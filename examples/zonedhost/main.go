// Zonedhost: the SOS split expressed through the zoned interface §4.3
// names as the alternative to multi-stream — the host owns placement
// and reclamation. The zns backend is a host-side FTL over append-only
// zones: stream 0 maps to durable zones (pseudo-QLC + Reed-Solomon),
// stream 1 to approximate zones (native PLC, detect-only), and the
// same storage.Backend contract the device-side FTL implements runs
// here with the division of labor flipped to the host.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
	"sos/internal/zns"
)

const (
	sysStream   = storage.StreamID(0)
	spareStream = storage.StreamID(1)
)

func run(w io.Writer) error {
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 4096, Spare: 1024, PagesPerBlock: 20, Blocks: 16},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     77,
	})
	if err != nil {
		return err
	}
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		return err
	}
	be, err := zns.NewBackend(zns.BackendConfig{
		Chip:          chip,
		BlocksPerZone: 2,
		Streams: []storage.StreamPolicy{
			{Name: "sys", Mode: pQLC, Scheme: ecc.MustRSScheme(223, 32), WearLeveling: true},
			{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.DetectOnly{}},
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "zoned PLC device: %d zones of 2 blocks, host-side FTL mounted\n", be.Device().Zones())

	// Pre-age the silicon: a device late in life.
	for b := 0; b < chip.Blocks(); b++ {
		for i := 0; i < flash.PLC.RatedPEC()*3/4; i++ {
			if err := chip.Erase(b); err != nil {
				break
			}
		}
	}

	// The host FTL places system data in durable zones, media in
	// approximate zones — same write call, policy decided by stream.
	sysData := bytes.Repeat([]byte{0xAA}, 4096)
	mediaData := bytes.Repeat([]byte{0x55}, 4096)
	if err := be.Write(storage.BatchOp{LPA: 0, Data: sysData, Stream: sysStream}); err != nil {
		return err
	}
	if err := be.Write(storage.BatchOp{LPA: 1, Data: mediaData, Stream: spareStream}); err != nil {
		return err
	}

	for _, years := range []int{1, 3} {
		clock.SetNow(sim.Time(years) * sim.Year)
		s, err := be.Read(0)
		if err != nil {
			return err
		}
		m, err := be.Read(1)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "after %dy: durable zone degraded=%v (%d raw flips) | approximate zone degraded=%v (%d raw flips)\n",
			years, s.Degraded, s.RawFlips, m.Degraded, m.RawFlips)
	}

	// Churn the media page: superseded copies accumulate host-side
	// (zones have no stale command) until the backend drains and resets
	// whole zones — reclamation at zone granularity.
	for i := 0; i < 200; i++ {
		if err := be.Write(storage.BatchOp{LPA: 1, Data: mediaData, Stream: spareStream}); err != nil {
			return err
		}
	}
	st := be.Stats()
	fmt.Fprintf(w, "\nhost GC: %d zone reclamations, %d relocations, write amp %.2f\n",
		st.GCRuns, st.GCMoves, be.WriteAmplification())

	// Power loss: the host FTL rebuilds its mapping from write pointers
	// and OOB tags, newest copy winning.
	rb, err := be.Recover()
	if err != nil {
		return err
	}
	if err := rb.CheckInvariants(); err != nil {
		return err
	}
	s, err := rb.Read(0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after power loss: %d pages recovered, system data intact=%v\n",
		rb.MappedPages(), bytes.Equal(s.Data, sysData))

	rst := rb.Stats()
	fmt.Fprintf(w, "device: %d retired blocks (offline zones), %d free blocks\n",
		rst.Retired, rst.FreeBlocks)
	fmt.Fprintln(w, "\nsame SOS policy, different division of labor: with zones the")
	fmt.Fprintln(w, "host does what the FTL's streams did in the main design.")
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
