package ecc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"sos/internal/sim"
)

func TestGFMulBasics(t *testing.T) {
	if gfMul(0, 7) != 0 || gfMul(7, 0) != 0 {
		t.Fatal("mul by zero")
	}
	if gfMul(1, 97) != 97 {
		t.Fatal("mul by one")
	}
	// 2*128 = 256 -> reduced by 0x11d -> 0x11d ^ 0x100 = 0x1d
	if got := gfMul(2, 128); got != 0x1d {
		t.Fatalf("2*128 = %#x, want 0x1d", got)
	}
}

func TestGFFieldAxioms(t *testing.T) {
	err := quick.Check(func(a, b, c byte) bool {
		// Commutativity and distributivity over XOR (field addition).
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("inv(%d) failed", a)
		}
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gfDiv by zero did not panic")
		}
	}()
	gfDiv(5, 0)
}

func TestGFPow(t *testing.T) {
	if gfPow(3, 0) != 1 {
		t.Fatal("pow 0")
	}
	if gfPow(0, 5) != 0 {
		t.Fatal("0^5")
	}
	want := gfMul(gfMul(3, 3), 3)
	if gfPow(3, 3) != want {
		t.Fatalf("3^3 = %d, want %d", gfPow(3, 3), want)
	}
}

func TestRSEncodeDecodeClean(t *testing.T) {
	rs, err := NewRS(16)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("sustainability-oriented storage for the planet!")
	cw, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cw) != len(data)+16 {
		t.Fatalf("codeword length %d", len(cw))
	}
	got, corrected, err := rs.Decode(cw)
	if err != nil || corrected != 0 {
		t.Fatalf("clean decode: corrected=%d err=%v", corrected, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("roundtrip mismatch")
	}
}

func TestRSCorrectsUpToT(t *testing.T) {
	rng := sim.NewRNG(1)
	rs, err := NewRS(16) // t = 8
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	for nerr := 1; nerr <= 8; nerr++ {
		cw, err := rs.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]byte, len(cw))
		copy(orig, cw)
		// Corrupt nerr distinct positions.
		positions := map[int]bool{}
		for len(positions) < nerr {
			positions[rng.Intn(len(cw))] = true
		}
		for p := range positions {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		got, corrected, err := rs.Decode(cw)
		if err != nil {
			t.Fatalf("nerr=%d: decode failed: %v", nerr, err)
		}
		if corrected != nerr {
			t.Fatalf("nerr=%d: corrected %d", nerr, corrected)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("nerr=%d: data mismatch", nerr)
		}
		if !bytes.Equal(cw, orig) {
			t.Fatalf("nerr=%d: parity not restored", nerr)
		}
	}
}

func TestRSDetectsBeyondT(t *testing.T) {
	rng := sim.NewRNG(2)
	rs, _ := NewRS(8) // t = 4
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	failures := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		cw, _ := rs.Encode(data)
		positions := map[int]bool{}
		for len(positions) < 12 { // 3x the budget
			positions[rng.Intn(len(cw))] = true
		}
		for p := range positions {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		if _, _, err := rs.Decode(cw); errors.Is(err, ErrUncorrectable) {
			failures++
		}
	}
	// Miscorrection probability for t=4 RS is tiny; essentially all
	// trials must report uncorrectable.
	if failures < trials-2 {
		t.Fatalf("only %d/%d overloaded codewords flagged uncorrectable", failures, trials)
	}
}

func TestRSPropertyRoundtrip(t *testing.T) {
	rs, _ := NewRS(16)
	rng := sim.NewRNG(3)
	err := quick.Check(func(raw []byte, nerrRaw uint8) bool {
		if len(raw) == 0 {
			raw = []byte{1}
		}
		if len(raw) > rs.MaxData() {
			raw = raw[:rs.MaxData()]
		}
		nerr := int(nerrRaw) % (rs.CorrectableErrors() + 1)
		cw, err := rs.Encode(raw)
		if err != nil {
			return false
		}
		positions := map[int]bool{}
		for len(positions) < nerr {
			positions[rng.Intn(len(cw))] = true
		}
		for p := range positions {
			cw[p] ^= byte(1 + rng.Intn(255))
		}
		got, corrected, err := rs.Decode(cw)
		return err == nil && corrected == nerr && bytes.Equal(got, raw)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRSGeometryErrors(t *testing.T) {
	if _, err := NewRS(0); err == nil {
		t.Error("NewRS(0) accepted")
	}
	if _, err := NewRS(255); err == nil {
		t.Error("NewRS(255) accepted")
	}
	if _, err := NewRS(33); err == nil {
		t.Error("NewRS(33) accepted: the remainder kernel holds at most 32 parity bytes")
	}
	rs, _ := NewRS(16)
	if _, err := rs.Encode(nil); err == nil {
		t.Error("empty encode accepted")
	}
	if _, err := rs.Encode(make([]byte, 240)); err == nil {
		t.Error("oversize encode accepted")
	}
	if _, _, err := rs.Decode(make([]byte, 10)); err == nil {
		t.Error("short decode accepted")
	}
}

func TestRSShortCodeword(t *testing.T) {
	// Shortened codes (small data) must round trip too.
	rs, _ := NewRS(4)
	data := []byte{0xab}
	cw, err := rs.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	cw[0] ^= 0xff
	got, corrected, err := rs.Decode(cw)
	if err != nil || corrected != 1 || got[0] != 0xab {
		t.Fatalf("shortened code: got=%v corrected=%d err=%v", got, corrected, err)
	}
}

// checkSyndromes asserts that syndromesInto agrees with the direct
// polynomial evaluation S_i = cw(α^i) and returns whether cw is clean.
func checkSyndromes(t *testing.T, rs *RS, cw []byte, label string) bool {
	t.Helper()
	np := rs.ParityBytes()
	got := make([]byte, np)
	clean := rs.syndromesInto(got, cw)
	wantClean := true
	for i := 0; i < np; i++ {
		ref := polyEval(cw, gfExp[i])
		if ref != 0 {
			wantClean = false
		}
		if got[i] != ref {
			t.Errorf("%s: syndrome %d = %#x, want %#x", label, i, got[i], ref)
			break
		}
	}
	if clean != wantClean {
		t.Errorf("%s: clean=%v, want %v", label, clean, wantClean)
	}
	return wantClean
}

// isCodeword reports whether cw vanishes at every root of the generator.
func isCodeword(rs *RS, cw []byte) bool {
	for i := 0; i < rs.ParityBytes(); i++ {
		if polyEval(cw, gfExp[i]) != 0 {
			return false
		}
	}
	return true
}

func TestSyndromesSparseMatchesReference(t *testing.T) {
	// syndromesInto picks a sparse evaluation for nearly-zero codewords
	// and the remainder kernel for dense ones; both must agree with the
	// direct polynomial evaluation S_i = cw(α^i) at every density,
	// especially around the sparseSyndromeMax crossover, on random words
	// and on real codewords, clean or carrying errors.
	rng := sim.NewRNG(11)
	for _, np := range []int{4, 8, 16, 32} {
		rs, err := NewRS(np)
		if err != nil {
			t.Fatal(err)
		}
		for _, nz := range []int{0, 1, 2, 3, sparseSyndromeMax - 1, sparseSyndromeMax, sparseSyndromeMax + 1, 100, 255} {
			cw := make([]byte, 255)
			for placed := 0; placed < nz; {
				p := rng.Intn(len(cw))
				if cw[p] != 0 {
					continue
				}
				cw[p] = byte(1 + rng.Intn(255))
				placed++
			}
			checkSyndromes(t, rs, cw, fmt.Sprintf("np=%d random nz=%d", np, nz))
		}

		budget := rs.CorrectableErrors()
		decoders := []struct {
			name string
			fn   func([]byte) ([]byte, int, error)
		}{{"Decode", rs.Decode}, {"DecodeInPlace", rs.DecodeInPlace}}
		for _, n := range []int{1, 3, 17, rs.MaxData() / 2, rs.MaxData()} {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			clean, err := rs.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			for nerr := 0; nerr <= budget+2; nerr++ {
				label := fmt.Sprintf("np=%d len=%d nerr=%d", np, n, nerr)
				cw := append([]byte(nil), clean...)
				positions := map[int]bool{}
				for len(positions) < nerr {
					positions[rng.Intn(len(cw))] = true
				}
				for p := range positions {
					cw[p] ^= byte(1 + rng.Intn(255))
				}
				if checkSyndromes(t, rs, cw, label) != (nerr == 0) {
					t.Fatalf("%s: clean verdict disagrees with the injected errors", label)
				}
				for _, dec := range decoders {
					work := append([]byte(nil), cw...)
					got, corrected, err := dec.fn(work)
					switch {
					case nerr <= budget:
						if err != nil || corrected != nerr || !bytes.Equal(got, data) || !bytes.Equal(work, clean) {
							t.Errorf("%s %s: corrected=%d err=%v, data restored=%v", label, dec.name, corrected, err, bytes.Equal(got, data))
						}
					case err == nil:
						// A miscorrection beyond t must land on a valid
						// codeword, and never pass as clean.
						if corrected == 0 || !isCodeword(rs, work) {
							t.Errorf("%s %s: corrected=%d, codeword valid=%v", label, dec.name, corrected, isCodeword(rs, work))
						}
					case !errors.Is(err, ErrUncorrectable):
						t.Errorf("%s %s: err=%v, want ErrUncorrectable", label, dec.name, err)
					}
				}
			}
		}
	}
}

func TestRSEncodeRandomLengths(t *testing.T) {
	// Every encoded codeword keeps its data as the prefix and vanishes at
	// every generator root, at every length the code accepts — with and
	// without a leading zero run (which the kernel skips a word at a
	// time).
	rng := sim.NewRNG(12)
	for _, np := range []int{4, 8, 16, 32} {
		rs, err := NewRS(np)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(rs.MaxData())
			switch trial {
			case 0:
				n = 1
			case 1:
				n = rs.MaxData()
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			if trial%2 == 1 {
				clear(data[:rng.Intn(n+1)])
			}
			cw, err := rs.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(cw) != n+np || !bytes.Equal(cw[:n], data) {
				t.Fatalf("np=%d len=%d: data prefix not preserved", np, n)
			}
			if !isCodeword(rs, cw) {
				t.Fatalf("np=%d len=%d: encoded word is not a codeword", np, n)
			}
		}
	}
}
