package wire

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Half is an IEEE 754 binary16 value: 1 sign, 5 exponent and 10 mantissa
// bits. Features cross the network in this form (§5 of the paper models
// them as fp16): 2 bytes per element instead of 8.
type Half uint16

// HalfSize is the encoded size of one Half in bytes.
const HalfSize = 2

// halfMax is the largest finite Half, 65504.
const halfMax Half = 0x7bff

// ErrNonFinite reports a NaN or infinity where a feature was expected.
var ErrNonFinite = errors.New("wire: non-finite feature")

// HalfFromFloat64 rounds f to the nearest Half, ties to even. Magnitudes
// beyond the binary16 range saturate to ±65504 rather than becoming
// infinities; NaN and ±Inf have no finite image and report ok == false.
func HalfFromFloat64(f float64) (h Half, ok bool) {
	b := math.Float64bits(f)
	sign := Half(b>>48) & 0x8000
	exp := int(b>>52) & 0x7ff
	man := b & (1<<52 - 1)
	if exp == 0x7ff {
		return 0, false
	}
	e := exp - 1023 + 15 // binary16 biased exponent
	switch {
	case e >= 0x1f:
		return sign | halfMax, true
	case e > 0:
		// Adding (not or-ing) the rounded mantissa lets a carry out of it
		// bump the exponent; a carry into the infinity pattern saturates.
		h = Half(e<<10) + Half(roundShift(man, 42))
		if h > halfMax {
			h = halfMax
		}
		return sign | h, true
	case e >= -10:
		// Subnormal: the result counts units of 2^-24. A carry to 0x400 is
		// the smallest normal number, which is the right answer.
		return sign | Half(roundShift(man|1<<52, uint(43-e))), true
	}
	return sign, true // below half the smallest subnormal: ±0
}

// roundShift returns v >> shift, rounded to nearest with ties to even.
func roundShift(v uint64, shift uint) uint64 {
	q := v >> shift
	rem := v & (1<<shift - 1)
	half := uint64(1) << (shift - 1)
	if rem > half || (rem == half && q&1 == 1) {
		q++
	}
	return q
}

// Float64 widens h exactly: every Half is representable as a float64.
func (h Half) Float64() float64 {
	sign := uint64(h>>15) << 63
	exp := uint64(h>>10) & 0x1f
	man := uint64(h) & 0x3ff
	switch exp {
	case 0: // zero or subnormal: man × 2^-24
		return math.Float64frombits(sign | math.Float64bits(float64(man)*0x1p-24))
	case 0x1f: // infinity or NaN
		return math.Float64frombits(sign | 0x7ff<<52 | man<<42)
	}
	return math.Float64frombits(sign | (exp+1023-15)<<52 | man<<42)
}

// AppendHalves rounds src to binary16 and appends it to dst. A non-finite
// element fails the whole batch with ErrNonFinite: it must not be shipped.
func AppendHalves(dst []Half, src []float64) ([]Half, error) {
	n := len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	for i, f := range src {
		h, ok := HalfFromFloat64(f)
		if !ok {
			return dst[:n], fmt.Errorf("%w: element %d is %v", ErrNonFinite, i, f)
		}
		dst[n+i] = h
	}
	return dst, nil
}

// AppendFloat64s widens src and appends it to dst.
func AppendFloat64s(dst []float64, src []Half) []float64 {
	n := len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	for i, h := range src {
		dst[n+i] = h.Float64()
	}
	return dst
}
