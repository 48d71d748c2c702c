package wire

import (
	"errors"
	"math"
	"testing"
)

// Every one of the 65 536 bit patterns: finite values widen exactly and
// round back to themselves, both zeros keep their sign, and the 2 048
// infinity/NaN patterns are recognised as non-finite and never produced.
func TestHalfExhaustive(t *testing.T) {
	nonFinite := 0
	for bits := 0; bits <= 0xffff; bits++ {
		h := Half(bits)
		f := h.Float64()
		if h&0x7c00 == 0x7c00 { // all exponent bits set: infinity or NaN
			nonFinite++
			if !math.IsInf(f, 0) && !math.IsNaN(f) {
				t.Fatalf("%#04x is non-finite but widens to %v", bits, f)
			}
			if _, ok := HalfFromFloat64(f); ok {
				t.Fatalf("%v (from %#04x) was accepted", f, bits)
			}
			continue
		}
		if math.IsInf(f, 0) || math.IsNaN(f) || math.Abs(f) > 65504 {
			t.Fatalf("%#04x widens to %v", bits, f)
		}
		back, ok := HalfFromFloat64(f)
		if !ok || back != h {
			t.Fatalf("%#04x → %v → %#04x (ok=%v)", bits, f, back, ok)
		}
		if math.Signbit(f) != (h&0x8000 != 0) {
			t.Fatalf("%#04x lost its sign: %v", bits, f)
		}
	}
	if nonFinite != 2048 {
		t.Fatalf("%d non-finite patterns, want 2048", nonFinite)
	}
}

// Between every pair of adjacent finite halves: anything below the midpoint
// rounds down, anything above rounds up, and the midpoint itself goes to the
// neighbour with the even mantissa. Float64 has 42 more mantissa bits than
// binary16, so the midpoint and its two float64 neighbours are exact.
func TestHalfRoundsToNearestEven(t *testing.T) {
	for bits := 0; bits < int(halfMax); bits++ {
		lo, hi := Half(bits), Half(bits+1)
		mid := (lo.Float64() + hi.Float64()) / 2
		even := lo
		if lo&1 == 1 {
			even = hi
		}
		for _, tc := range []struct {
			f    float64
			want Half
		}{
			{math.Nextafter(mid, 0), lo},
			{mid, even},
			{math.Nextafter(mid, math.Inf(1)), hi},
		} {
			for _, sign := range []Half{0, 0x8000} {
				f := tc.f
				if sign != 0 {
					f = -f
				}
				if got, ok := HalfFromFloat64(f); !ok || got != tc.want|sign {
					t.Fatalf("%v (between %#04x and %#04x) → %#04x, want %#04x", f, lo, hi, got, tc.want|sign)
				}
			}
		}
	}
}

func TestHalfEdges(t *testing.T) {
	for _, tc := range []struct {
		f    float64
		want Half
	}{
		{0, 0x0000},
		{math.Copysign(0, -1), 0x8000},
		{1, 0x3c00},
		{-2, 0xc000},
		{65504, 0x7bff},
		{65519.99, 0x7bff},         // rounds down to the largest finite half
		{65520, 0x7bff},            // would round to infinity: saturates
		{1e300, 0x7bff},            // far out of range: saturates
		{-1e300, 0xfbff},           //
		{0x1p-14, 0x0400},          // smallest normal
		{0x1p-24, 0x0001},          // smallest subnormal
		{0x1p-25, 0x0000},          // exactly half of it: ties to even, zero
		{0x1.0000000000001p-25, 1}, // just above half: rounds up
		{0x1.ffcp-15, 0x0400},      // largest subnormal + half an ulp: ties to the normal
		{5e-324, 0x0000},           // float64 subnormal
		{-5e-324, 0x8000},          //
	} {
		if got, ok := HalfFromFloat64(tc.f); !ok || got != tc.want {
			t.Errorf("HalfFromFloat64(%v) = %#04x, %v; want %#04x", tc.f, got, ok, tc.want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := HalfFromFloat64(f); ok {
			t.Errorf("HalfFromFloat64(%v) accepted", f)
		}
	}
}

func TestAppendHalvesRejectsNonFinite(t *testing.T) {
	keep := []Half{0x3c00}
	got, err := AppendHalves(keep, []float64{1, 2, math.NaN(), 4})
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if len(got) != 1 || got[0] != 0x3c00 {
		t.Fatalf("a failed batch left %v behind, want the destination unchanged", got)
	}
	got, err = AppendHalves(keep, []float64{0.5, -0.25})
	if err != nil || len(got) != 3 || got[1] != 0x3800 || got[2] != 0xb400 {
		t.Fatalf("AppendHalves = %#04x, %v", got, err)
	}
	if f := AppendFloat64s([]float64{9}, got); len(f) != 4 || f[0] != 9 || f[1] != 1 || f[2] != 0.5 || f[3] != -0.25 {
		t.Fatalf("AppendFloat64s = %v", f)
	}
}
