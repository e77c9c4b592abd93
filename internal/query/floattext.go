package query

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// The float text kernel. Every float cell a text surface renders is
// spelled as strconv.AppendFloat(dst, v, 'g', -1, 64) spells it: the
// shortest decimal that parses back to v, nearest to v when several
// have that length, ties to even, in %e below 1e-4 and from 1e6. Most
// cells are float32 values reconstructed from the models and widened
// to float64, so appendFloat takes a fast path for them and hands
// every other value to strconv itself.
//
// The fast path. A float32-exact normal v is m·2^-n with a 24-bit m,
// so at a decimal scale s, v·10^s = m·5^s / 2^(n-s): one 64×64-bit
// product and a shift give its floor q and the remainder r below the
// binary point. v's float64 neighbours are 2^(-n-29) away (half that
// below when m = 2^23), so a candidate q or q+1 parses back to v iff
// its distance, r or 2^(n-s) − r, times 2^30 (2^31 below a power of
// two) is at most 5^s. Both ends are inclusive: v's float64 mantissa
// m·2^29 is even, and a parse rounds a tie to even. The kernel tries
// 16 digits, then fewer while a candidate still fits; when 16 do not
// fit, 17 always do.

// Binary exponents of the fast path. Below floatMinExp2 the 17-digit
// scale would pass 27, where 5^s no longer fits in 64 bits; above
// floatMaxExp2 the 16-digit scale would turn negative.
const (
	floatMinExp2 = -36
	floatMaxExp2 = 52
)

// pow5 holds 5^s for every scale the fast path uses.
var pow5 = func() (p [28]uint64) {
	p[0] = 1
	for s := 1; s < len(p); s++ {
		p[s] = 5 * p[s-1]
	}
	return p
}()

// appendFloat appends v as strconv.AppendFloat(dst, v, 'g', -1, 64)
// writes it, byte for byte.
func appendFloat(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	e2 := int(b>>52&0x7ff) - 1023
	if b&(1<<29-1) != 0 || e2 < floatMinExp2 || e2 > floatMaxExp2 {
		// Not float32-exact, zero, subnormal, NaN, ±Inf or out of
		// range.
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	m := 1<<23 | b>>29&(1<<23-1)
	n := 23 - e2
	lowShift := uint(30)
	if m == 1<<23 {
		lowShift = 31
	}
	// v is in [10^e10, 10^(e10+2)), so at scale 15-e10 the floor of
	// v·10^s has 16 or 17 digits.
	s := 15 - (e2*78913)>>18
	q, r, unit := scaleFloat(m, n, s)
	if q >= 1e16 {
		s--
		q, r, unit = scaleFloat(m, n, s)
	}
	d, ok := nearestFit(q, r, unit, pow5[s]>>lowShift, pow5[s]>>30)
	if !ok {
		// 17 digits: the nearer candidate is at most half a unit
		// away, and the interval's half-width is at least 0.55 units.
		q, r, unit = scaleFloat(m, n, s+1)
		d, _ = nearestFit(q, r, unit, pow5[s+1]>>lowShift, pow5[s+1]>>30)
		return appendDecimal(dst, d, s+1)
	}
	// Fewer digits while a candidate still fits. v exactly equal to
	// a decimal ending in 0 has nothing shorter than that decimal
	// stripped of its zeros, so the loop stops there at once; below
	// scale 0 nothing fits, as v's half-gap is at most 1/2 there.
	for s > 0 && !(r == 0 && q%10 == 0) {
		q1, r1, unit1 := scaleFloat(m, n, s-1)
		d1, ok := nearestFit(q1, r1, unit1, pow5[s-1]>>lowShift, pow5[s-1]>>30)
		if !ok {
			break
		}
		d, q, r, s = d1, q1, r1, s-1
	}
	return appendDecimal(dst, d, s)
}

// scaleFloat returns the floor q of m·5^s / 2^(n-s) and the remainder
// r below it in units of 1/unit. A non-positive shift n-s is exact.
func scaleFloat(m uint64, n, s int) (q, r, unit uint64) {
	hi, lo := bits.Mul64(m, pow5[s])
	sh := n - s
	if sh <= 0 {
		return lo << uint(-sh), 0, 1
	}
	unit = 1 << uint(sh)
	return hi<<(64-uint(sh)) | lo>>uint(sh), lo & (unit - 1), unit
}

// nearestFit returns the candidate q or q+1 that parses back to v,
// the nearer when both do (ties to even), and false when neither does:
// the low one is r units below v·10^s, the high one unit-r above, and
// a candidate fits when its distance is within its bound.
func nearestFit(q, r, unit, lowBound, highBound uint64) (uint64, bool) {
	lowOK := r <= lowBound
	if unit-r <= highBound && (!lowOK || 2*r > unit || 2*r == unit && q&1 != 0) {
		return q + 1, true
	}
	return q, lowOK
}

// appendDecimal appends d·10^-s in the 'g' layout of a shortest
// strconv spelling: %e when the exponent is below -4 or at least 6,
// %f otherwise, with d's trailing zeros dropped. d is below 10^17.
func appendDecimal(dst []byte, d uint64, s int) []byte {
	nd := bits.Len64(d) * 1233 >> 12 // ⌊log10(2^len)⌋: d's digits or one fewer
	if d >= pow10[nd] {
		nd++
	}
	exp := nd - 1 - s
	// All 17 digit places, zero-padded, end at buf[24]; d's digits are
	// buf[24-nd:end] once its trailing zeros are cut.
	var buf [24]byte
	hi := d / 1e8
	binary.LittleEndian.PutUint64(buf[16:], eightDigits(uint32(d-hi*1e8)))
	top := hi / 1e8
	binary.LittleEndian.PutUint64(buf[8:], eightDigits(uint32(hi-top*1e8)))
	buf[7] = byte('0' + top)
	start, end := len(buf)-nd, len(buf)
	for buf[end-1] == '0' {
		end--
	}
	nd = end - start
	switch {
	case exp < -4 || exp >= 6:
		// d[0] '.' d[1:] 'e' sign and a two-digit exponent: the fast
		// path's exponents are all below 100.
		if nd > 1 {
			buf[start-1], buf[start] = buf[start], '.'
			start--
		}
		dst = append(dst, buf[start:end]...)
		sign := byte('+')
		if exp < 0 {
			sign, exp = '-', -exp
		}
		return append(dst, 'e', sign, byte('0'+exp/10), byte('0'+exp%10))
	case exp < 0:
		// "0." and -exp-1 zeros before the digits.
		for range -exp - 1 {
			start--
			buf[start] = '0'
		}
		buf[start-2], buf[start-1] = '0', '.'
		return append(dst, buf[start-2:end]...)
	case exp+1 >= nd:
		// An integer: the digits and exp+1-nd zeros.
		for range exp + 1 - nd {
			buf[end] = '0'
			end++
		}
		return append(dst, buf[start:end]...)
	}
	// exp+1 integer digits move one place left, over the point.
	for i := start; i <= start+exp; i++ {
		buf[i-1] = buf[i]
	}
	buf[start+exp] = '.'
	return append(dst, buf[start-1:end]...)
}

// pow10 holds 10^k for every digit count below 18.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
}

// eightDigits returns x < 10^8 as eight ASCII digits, zero-padded, in
// a word whose little-endian bytes are them in order: the word is cut
// into lanes of 4, 2 and then 1 digit, each lane a multiply, a shift
// and a mask.
func eightDigits(x uint32) uint64 {
	hi := x / 10000
	v := uint64(hi) | uint64(x-hi*10000)<<32
	// Per 32-bit lane v/100 (10486/2^20 is exact below 10^4), then the
	// lanes' quotient and remainder as 16-bit lanes.
	q := v * 10486 >> 20 & (0x7f<<32 | 0x7f)
	v = q | (v-100*q)<<16
	// Per 16-bit lane v/10 (103/2^10 is exact below 100).
	q = v * 103 >> 10 & (0xf<<48 | 0xf<<32 | 0xf<<16 | 0xf)
	v = q | (v-10*q)<<8
	return v + 0x3030303030303030
}
