package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUncorrectable reports that a codeword held more errors than the code
// can correct. The caller (the flash read path) decides whether that is a
// hard failure (SYS data) or tolerated degradation (SPARE data).
var ErrUncorrectable = errors.New("ecc: uncorrectable codeword")

// maxParity bounds the parity count: the remainder kernel keeps the
// parity register in four 64-bit words. Every configured code fits
// (rs-light 16, rs-strong 32).
const maxParity = 32

// parityReg is the parity register of the remainder kernel: parity byte
// j sits in word j/8, packed big-endian (byte 0 is the most significant
// byte of word 0). Bytes at or past nparity are always zero.
type parityReg [4]uint64

// packParity loads parity bytes (at most maxParity) into a register.
func packParity(p []byte) (w parityReg) {
	for j, b := range p {
		w[j>>3] |= uint64(b) << (56 - 8*(j&7))
	}
	return w
}

// unpackParity stores the first len(dst) register bytes into dst.
func unpackParity(dst []byte, w *parityReg) {
	j := 0
	for ; len(dst)-j >= 8; j += 8 {
		binary.BigEndian.PutUint64(dst[j:], w[j>>3])
	}
	for ; j < len(dst); j++ {
		dst[j] = byte(w[j>>3] >> (56 - 8*(j&7)))
	}
}

// RS is a systematic Reed-Solomon code over GF(2^8) with nparity check
// bytes per codeword, correcting up to nparity/2 byte errors. Codewords
// are data||parity with len(data)+nparity <= 255.
type RS struct {
	nparity int
	// encRows[f] holds f*gen[1..nparity] (gen is the monic generator,
	// highest-degree first) packed like a parityReg: the row XORed into
	// the register when a division step's feedback is f. Row 0 is zero.
	encRows [256]parityReg
}

// NewRS returns a Reed-Solomon coder with the given number of parity
// bytes, in [1, 32] (even for a sensible correction budget; odd values
// are allowed and floor the budget).
func NewRS(nparity int) (*RS, error) {
	if nparity < 1 || nparity > maxParity {
		return nil, fmt.Errorf("ecc: parity count %d out of range (1..%d)", nparity, maxParity)
	}
	gen := []byte{1}
	for i := 0; i < nparity; i++ {
		gen = polyMul(gen, []byte{1, gfExp[i]})
	}
	r := &RS{nparity: nparity}
	var row [maxParity]byte
	for f := 1; f < 256; f++ {
		mul := &gfMulTab[f]
		for j := 0; j < nparity; j++ {
			row[j] = mul[gen[j+1]]
		}
		r.encRows[f] = packParity(row[:nparity])
	}
	return r, nil
}

// ParityBytes returns the per-codeword parity overhead.
func (r *RS) ParityBytes() int { return r.nparity }

// CorrectableErrors returns the per-codeword correction budget t.
func (r *RS) CorrectableErrors() int { return r.nparity / 2 }

// MaxData returns the largest data length per codeword.
func (r *RS) MaxData() int { return 255 - r.nparity }

// Encode appends nparity parity bytes to data and returns the codeword.
// len(data) must be in (0, MaxData].
func (r *RS) Encode(data []byte) ([]byte, error) {
	if len(data) == 0 || len(data) > r.MaxData() {
		return nil, fmt.Errorf("ecc: data length %d out of range (1..%d)", len(data), r.MaxData())
	}
	cw := make([]byte, len(data)+r.nparity)
	r.encodeInto(cw, data)
	return cw, nil
}

// encodeInto writes the systematic codeword data||parity into cw, which
// must be exactly len(data)+ParityBytes() bytes. len(data) must be in
// (0, MaxData] — callers validate. It allocates nothing.
func (r *RS) encodeInto(cw, data []byte) {
	copy(cw, data)
	rem := r.remainder(data)
	unpackParity(cw[len(data):], &rem)
}

// remainder returns data·x^nparity mod g, the generator, as a packed
// register. It is the one dense kernel behind both directions: encode
// stores it as the parity, and decode compares it with the stored
// parity. Each step of the shift-register division reads one feedback
// byte (the register's top byte XOR the next data byte), shifts the
// register one byte and XORs the feedback's packed row: one table load
// per byte, no per-byte gfMul. A leading zero run leaves the register
// at zero (zero feedback eliminates nothing), so it is skipped a word
// at a time and a zero page divides for the cost of the scan.
func (r *RS) remainder(data []byte) parityReg {
	i := 0
	for len(data)-i >= 8 && binary.LittleEndian.Uint64(data[i:]) == 0 {
		i += 8
	}
	for i < len(data) && data[i] == 0 {
		i++
	}
	var w0, w1, w2, w3 uint64
	for _, d := range data[i:] {
		row := &r.encRows[byte(w0>>56)^d]
		w0 = (w0<<8 | w1>>56) ^ row[0]
		w1 = (w1<<8 | w2>>56) ^ row[1]
		w2 = (w2<<8 | w3>>56) ^ row[2]
		w3 = w3<<8 ^ row[3]
	}
	return parityReg{w0, w1, w2, w3}
}

// syndromes computes the nparity syndromes of the codeword; all-zero
// syndromes mean no detectable error.
func (r *RS) syndromes(cw []byte) ([]byte, bool) {
	syn := make([]byte, r.nparity)
	return syn, r.syndromesInto(syn, cw)
}

// sparseSyndromeMax bounds the nonzero-coefficient count the sparse
// syndrome path handles; denser codewords go to the remainder kernel.
// Sparse costs a few cheap ops per (nonzero byte, root) pair, the kernel
// one dependent table load per codeword byte. Measured on RS(255,223)
// the two cross near 12 nonzero bytes, and on RS(255,239) near 24.
const sparseSyndromeMax = 16

// syndromesInto computes the syndromes into caller-owned scratch (len
// exactly nparity, and len(cw) > nparity) and reports whether they are
// all zero. It allocates nothing — the batched read path calls it with
// stack scratch so a clean codeword syndrome-checks for free.
func (r *RS) syndromesInto(syn, cw []byte) bool {
	np := r.nparity
	// A syndrome is just the sum of its nonzero terms: S_i = Σ_j
	// c_j·(α^i)^(n-1-j). Nearly-zero codewords — zero-filled payload
	// slices carrying a few raw bit flips, the dominant shape on the
	// simulated media — have a handful of nonzero coefficients, so
	// collect their positions (a word at a time through the zero runs)
	// and evaluate only those terms: O(nonzero·nparity) instead of a
	// division over the whole codeword. Codewords that prove dense
	// mid-scan bail to the remainder kernel below.
	var pos [sparseSyndromeMax]uint8
	nz := 0
	dense := false
	j := 0
	for ; j+8 <= len(cw); j += 8 {
		if binary.LittleEndian.Uint64(cw[j:]) == 0 {
			continue
		}
		for k := j; k < j+8; k++ {
			if cw[k] == 0 {
				continue
			}
			if nz == sparseSyndromeMax {
				dense = true
				break
			}
			pos[nz] = uint8(k)
			nz++
		}
		if dense {
			break
		}
	}
	if !dense {
		for ; j < len(cw); j++ {
			if cw[j] == 0 {
				continue
			}
			if nz == sparseSyndromeMax {
				dense = true
				break
			}
			pos[nz] = uint8(j)
			nz++
		}
	}
	if !dense {
		for i := 0; i < np; i++ {
			syn[i] = 0
		}
		if nz == 0 {
			return true
		}
		n1 := len(cw) - 1
		for k := 0; k < nz; k++ {
			p := int(pos[k])
			// Term c·(α^i)^(n-1-p) for root i, walked incrementally in
			// exponent space: e starts at log c and advances by the
			// (reduced) position power per root, folded back below 255
			// so gfExp indexes stay in table range.
			e := int(gfLog[cw[p]])
			step := (n1 - p) % 255
			for i := 0; i < np; i++ {
				syn[i] ^= gfExp[e]
				e += step
				if e >= 255 {
					e -= 255
				}
			}
		}
		for i := 0; i < np; i++ {
			if syn[i] != 0 {
				return false
			}
		}
		return true
	}
	// Dense codeword: divide instead of evaluating. With c = D·x^np + P
	// (data D, stored parity P), c mod g = (D·x^np mod g) + P: the
	// kernel's remainder XOR the stored parity. The codeword is clean
	// exactly when that is zero. Otherwise, since g(α^i) = 0 at every
	// root, S_i = c(α^i) = r(α^i) for the np-byte r = c mod g, so a dirty
	// codeword evaluates np bytes per root, not the whole codeword.
	n := len(cw) - np
	rem := r.remainder(cw[:n])
	par := packParity(cw[n:])
	for k := range rem {
		rem[k] ^= par[k]
	}
	if rem == (parityReg{}) {
		clear(syn)
		return true
	}
	var rb [maxParity]byte
	unpackParity(rb[:np], &rem)
	for i := 0; i < np; i++ {
		// A single row of the product table: for root x, s = s*x ^ c
		// becomes one load per remainder byte.
		row := &gfMulTab[gfExp[i]]
		var s byte
		for _, c := range rb[:np] {
			s = row[s] ^ c
		}
		syn[i] = s
	}
	// A nonzero r of degree < np cannot vanish at all np roots of g, so
	// at least one syndrome is nonzero.
	return false
}

// DecodeInPlace is Decode's allocation-free fast path: it syndrome-
// checks the codeword with stack scratch and, when clean, returns the
// data portion of cw directly — zero allocations. Dirty codewords (the
// error path) fall back to the full Decode machinery, which corrects in
// place within cw.
func (r *RS) DecodeInPlace(cw []byte) (data []byte, corrected int, err error) {
	if len(cw) <= r.nparity || len(cw) > 255 {
		return nil, 0, fmt.Errorf("ecc: codeword length %d out of range", len(cw))
	}
	var scratch [maxParity]byte
	if r.syndromesInto(scratch[:r.nparity], cw) {
		return cw[:len(cw)-r.nparity], 0, nil
	}
	return r.Decode(cw)
}

// Decode corrects up to CorrectableErrors byte errors in place and
// returns the data portion along with the number of corrected bytes.
// If the codeword is uncorrectable it returns ErrUncorrectable; the
// (possibly corrupt) data portion is still returned so approximate
// consumers can use it.
func (r *RS) Decode(cw []byte) (data []byte, corrected int, err error) {
	if len(cw) <= r.nparity || len(cw) > 255 {
		return nil, 0, fmt.Errorf("ecc: codeword length %d out of range", len(cw))
	}
	data = cw[:len(cw)-r.nparity]
	syn, clean := r.syndromes(cw)
	if clean {
		return data, 0, nil
	}

	// Berlekamp-Massey: find error locator polynomial sigma
	// (lowest-degree first here for convenience).
	sigma := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	var b byte = 1
	for n := 0; n < r.nparity; n++ {
		var delta byte = syn[n]
		for i := 1; i <= l; i++ {
			if i < len(sigma) {
				delta ^= gfMul(sigma[i], syn[n-i])
			}
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= n {
			tmp := make([]byte, len(sigma))
			copy(tmp, sigma)
			sigma = polyAddShift(sigma, prev, gfDiv(delta, b), m)
			l = n + 1 - l
			prev = tmp
			b = delta
			m = 1
		} else {
			sigma = polyAddShift(sigma, prev, gfDiv(delta, b), m)
			m++
		}
	}
	nerr := l
	if nerr > r.CorrectableErrors() || len(sigma)-1 > nerr {
		return data, 0, ErrUncorrectable
	}

	// Chien search: roots of sigma give error positions.
	n := len(cw)
	var errPos []int
	// Position i (0 = first byte) corresponds to locator alpha^(n-1-i),
	// so it is a root when sigma(alpha^-(n-1-i)) = 0. That exponent is
	// e0+i with e0 = (256-n) mod 255; e0+i stays below 510, inside the
	// doubled gfExp table.
	e0 := (256 - n) % 255
	for i := 0; i < n; i++ {
		// Horner's rule, one product-table load per coefficient.
		row := &gfMulTab[gfExp[e0+i]]
		var v byte
		for j := len(sigma) - 1; j >= 0; j-- {
			v = row[v] ^ sigma[j]
		}
		if v == 0 {
			errPos = append(errPos, i)
		}
	}
	if len(errPos) != nerr {
		return data, 0, ErrUncorrectable
	}

	// Forney algorithm: error magnitudes.
	// Omega = (syn * sigma) mod x^nparity, syn as polynomial s1 + s2 x + ...
	omega := make([]byte, r.nparity)
	for i := 0; i < r.nparity; i++ {
		var v byte
		for j := 0; j <= i && j < len(sigma); j++ {
			v ^= gfMul(sigma[j], syn[i-j])
		}
		omega[i] = v
	}
	// sigma' (formal derivative): odd-power coefficients.
	for _, pos := range errPos {
		xi := gfExp[(n-1-pos)%255] // locator X_i
		xinv := gfInv(xi)
		// omega(X_i^-1)
		var ov byte
		for j := len(omega) - 1; j >= 0; j-- {
			ov = gfMul(ov, xinv) ^ omega[j]
		}
		// sigma'(X_i^-1)
		var dv byte
		for j := 1; j < len(sigma); j += 2 {
			dv ^= gfMul(sigma[j], gfPow(xinv, j-1))
		}
		if dv == 0 {
			return data, 0, ErrUncorrectable
		}
		// Forney with first consecutive root alpha^0 (b=0) carries an
		// extra X_i^(1-b) = X_i factor.
		mag := gfMul(xi, gfDiv(ov, dv))
		cw[pos] ^= mag
	}

	// Verify the correction actually zeroed the syndromes; miscorrection
	// beyond the budget must not silently pass.
	if _, ok := r.syndromes(cw); !ok {
		return data, 0, ErrUncorrectable
	}
	return cw[:len(cw)-r.nparity], len(errPos), nil
}

// polyAddShift returns a + scale * x^shift * b, where polynomials are
// lowest-degree first.
func polyAddShift(a, b []byte, scale byte, shift int) []byte {
	outLen := len(a)
	if len(b)+shift > outLen {
		outLen = len(b) + shift
	}
	out := make([]byte, outLen)
	copy(out, a)
	for i, c := range b {
		out[i+shift] ^= gfMul(c, scale)
	}
	return out
}
