// Mediadegrade: store a real (synthetic) photo on the approximate SPARE
// partition of a worn SOS device and watch its quality decay over the
// years — then show how placing just the critical bitstream prefix on
// SYS rescues most of the quality.
package main

import (
	"fmt"
	"log"

	"sos/internal/device"
	"sos/internal/flash"
	"sos/internal/media"
	"sos/internal/sim"
)

func main() {
	rng := sim.NewRNG(42)
	img, err := media.Synthetic(rng, 96, 96)
	if err != nil {
		log.Fatal(err)
	}
	enc, err := media.EncodeImage(img, 80)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("photo: 96x96, %d bytes encoded (DCT, quality 80)\n", len(enc))

	clock := &sim.Clock{}
	dev, err := device.NewSOS(flash.Geometry{
		PageSize: 4096, Spare: 1024, PagesPerBlock: 20, Blocks: 24,
	}, 9, clock)
	if err != nil {
		log.Fatal(err)
	}
	// Pre-wear the device to 90% of PLC's rated endurance: a worn-out
	// phone at the end of its service life — where the critical-prefix
	// placement starts to matter.
	chip := dev.Chip()
	for b := 0; b < chip.Blocks(); b++ {
		for i := 0; i < flash.PLC.RatedPEC()*9/10; i++ {
			if err := chip.Erase(b); err != nil {
				log.Fatal(err)
			}
		}
	}

	store := func(data []byte, class device.Class, base int64) []int64 {
		var lbas []int64
		ps := dev.PageSize()
		for off := 0; off < len(data); off += ps {
			end := off + ps
			if end > len(data) {
				end = len(data)
			}
			lba := base + int64(off/ps)
			if _, err := dev.Write(device.BatchWrite{LBA: lba, Data: data[off:end], Class: class}); err != nil {
				log.Fatal(err)
			}
			lbas = append(lbas, lba)
		}
		return lbas
	}
	read := func(lbas []int64, n int) []byte {
		var out []byte
		for _, lba := range lbas {
			res, err := dev.Read(lba)
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, res.Data...)
		}
		return out[:n]
	}

	// Copy A: everything on SPARE (pure approximate storage).
	a := store(enc, device.ClassSpare, 0)
	// Copy B: critical prefix (header + DC coefficients) on SYS, the
	// AC tail on SPARE.
	crit, err := media.CriticalPrefixLen(enc)
	if err != nil {
		log.Fatal(err)
	}
	bHead := store(enc[:crit], device.ClassSys, 1000)
	bTail := store(enc[crit:], device.ClassSpare, 2000)
	fmt.Printf("critical prefix: %d of %d bytes (%.0f%%)\n\n", crit, len(enc), float64(crit)/float64(len(enc))*100)

	fmt.Println("age     all-SPARE   prefix-on-SYS")
	for _, years := range []int{1, 2, 3, 5} {
		clock.SetNow(sim.Time(years) * sim.Year)
		pa := psnr(img, read(a, len(enc)))
		pb := psnr(img, append(read(bHead, crit), read(bTail, len(enc)-crit)...))
		fmt.Printf("%dy      %6.1f dB   %6.1f dB\n", years, pa, pb)
	}
	fmt.Println("\nthe paper's bet: most media tolerates this 'slight degradation',")
	fmt.Println("and the few dB it costs buys a 50% density (carbon) win over TLC.")
}

func psnr(ref *media.Image, payload []byte) float64 {
	dec, err := media.DecodeImage(payload)
	if err != nil {
		return 0
	}
	p, err := media.PSNR(ref, dec)
	if err != nil {
		return 0
	}
	if p > 99 {
		p = 99
	}
	return p
}
