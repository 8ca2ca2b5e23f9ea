package sched

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// ProcSum is an exact sum of float64 processing times — the Σ pᵢ side of
// Const2 (Eq. 7) everywhere it is decided. Every finite float64 is m·2^e
// with m < 2^53, so a sum over a common power-of-two denominator is
// lossless: the value is n/2^shift with n a 128-bit integer built on
// math/bits. Budgets stay int64 Rationals and LE cross-multiplies in 192
// bits, so nothing allocates or normalizes a gcd.
//
// A value 128 bits cannot hold — addends whose exponents span more than 128
// bits (a subnormal next to a normal proc, 2^±1000 next to seconds), a carry
// out of bit 127, or a negative addend — promotes itself to an exact
// big.Rat, counted by ExactFallbacks; callers never branch on it. That value
// is rebuilt on every update, never mutated, so a by-value copy such as
// `trial := sum` never aliases the original. The zero value is 0.
type ProcSum struct {
	n     u192     // fast-path numerator; n[2] is always 0
	shift uint     // value = numerator / 2^shift
	wide  *wideNum // promoted value, nil on the fast path
}

var exactFallbacks atomic.Uint64

// ExactFallbacks returns how many ProcSum values have promoted to big.Rat
// since the process started. Placement sums positive procs of similar
// magnitude and never promotes, so a non-zero count means the exact path
// has slid onto the slow one.
func ExactFallbacks() uint64 { return exactFallbacks.Load() }

// decompose splits a finite, non-zero float64 into |f| = m·2^e with m odd.
func decompose(f float64) (m uint64, e int, neg bool) {
	b := math.Float64bits(f)
	exp := int(b>>52) & 0x7ff
	m = b & (1<<52 - 1)
	if exp == 0 {
		e = -1074 // subnormal: no implicit bit
	} else {
		m |= 1 << 52
		e = exp - 1075
	}
	tz := bits.TrailingZeros64(m)
	return m >> uint(tz), e + tz, b>>63 != 0
}

// Add accumulates p exactly. It reports false, leaving the sum unchanged,
// when p is NaN or ±Inf: such a proc makes the sum unverifiable and callers
// reject whatever it belongs to.
func (s *ProcSum) Add(p float64) bool {
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return false
	}
	if p == 0 {
		return true
	}
	if m, e, neg := decompose(p); s.wide == nil {
		if !neg && s.add(u192{m}, e) {
			return true
		}
		exactFallbacks.Add(1)
	}
	s.addWide(p)
	return true
}

// AddSum accumulates another sum exactly.
func (s *ProcSum) AddSum(o ProcSum) {
	if s.wide == nil && o.wide == nil {
		if s.add(o.n, -int(o.shift)) {
			return
		}
		exactFallbacks.Add(1)
	}
	s.addWideSum(o)
}

// add adds a·2^e on the fast path, reporting false (sum untouched) when the
// result does not fit in 128 bits.
func (s *ProcSum) add(a u192, e int) bool {
	n, shift, ok := s.n, s.shift, true
	if e < 0 && uint(-e) > shift {
		if n, ok = n.shlFit(uint(-e) - shift); !ok {
			return false
		}
		shift = uint(-e)
	}
	if a, ok = a.shlFit(uint(int(shift) + e)); !ok {
		return false
	}
	var c uint64
	n[0], c = bits.Add64(n[0], a[0], 0)
	n[1], c = bits.Add64(n[1], a[1], c)
	if c != 0 {
		return false
	}
	s.n, s.shift = n, shift
	return true
}

// LE reports s ≤ budget·speed exactly. The speed is a float64 and hence
// dyadic (sm·2^se), so the decision is n·Den ≤ Num·sm·2^(shift+se): 192 bits
// on the left, 128 on the right, the power of two settled by bit lengths
// before any shift. Non-finite or non-positive speeds, and budgets with a
// non-positive denominator, admit nothing.
func (s ProcSum) LE(budget Rational, speed float64) bool {
	if math.IsNaN(speed) || math.IsInf(speed, 0) || speed <= 0 || budget.Den <= 0 {
		return false
	}
	if s.wide != nil {
		return s.leWide(budget, speed)
	}
	switch {
	case s.n == u192{}:
		return budget.Num >= 0
	case budget.Num <= 0:
		return false // a positive sum never fits a non-positive budget
	}
	sm, se, _ := decompose(speed)
	den := uint64(budget.Den)
	h0, l0 := bits.Mul64(s.n[0], den)
	h1, l1 := bits.Mul64(s.n[1], den)
	l1, c := bits.Add64(l1, h0, 0)
	l := u192{l0, l1, h1 + c}
	rh, rl := bits.Mul64(uint64(budget.Num), sm)
	k := int(s.shift) + se
	if k < 0 {
		return leScaled(l, uint(-k), u192{rl, rh}, 0)
	}
	return leScaled(l, 0, u192{rl, rh}, uint(k))
}

// u192 is a little-endian 192-bit unsigned integer.
type u192 [3]uint64

func (x u192) bitLen() int {
	for i := 2; i > 0; i-- {
		if x[i] != 0 {
			return 64*i + bits.Len64(x[i])
		}
	}
	return bits.Len64(x[0])
}

// shl returns x·2^k; the caller guarantees it fits in 192 bits.
func (x u192) shl(k uint) u192 {
	for ; k >= 64; k -= 64 {
		x = u192{0, x[0], x[1]}
	}
	if k == 0 {
		return x
	}
	return u192{x[0] << k, x[1]<<k | x[0]>>(64-k), x[2]<<k | x[1]>>(64-k)}
}

// shlFit returns x·2^k and whether it fits in 128 bits.
func (x u192) shlFit(k uint) (u192, bool) {
	if x != (u192{}) && x.bitLen()+int(k) > 128 {
		return x, false
	}
	return x.shl(k), true
}

// leScaled reports x·2^a ≤ y·2^b for non-zero x, y with a or b zero: bit
// lengths decide unequal magnitudes, and equal ones mean the shifted
// operand is no wider than the other, so it fits in 192 bits.
func leScaled(x u192, a uint, y u192, b uint) bool {
	if bx, by := x.bitLen()+int(a), y.bitLen()+int(b); bx != by {
		return bx < by
	}
	x, y = x.shl(a), y.shl(b)
	for i := 2; i > 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return x[0] <= y[0]
}

// splitFactor returns c = ⌈s·p⌉ = ⌈Proc/Period⌉ computed exactly (1 when
// the stream needs no split). The old float path, ⌈Proc/Period.Float() −
// 1e-12⌉, under-split when s·p sat marginally above an integer: sp =
// 3+1e-13 yielded c = 3 sub-streams of period 3·T with p/(3T) > 1 — each
// sub-stream alone still self-queues, and Const2 is unsatisfiable for it on
// any server. The exact ceiling is the least c with p ≤ c·T, so s'·p ≤ 1
// exactly. Non-finite or non-positive processing times never split. Most
// streams fit their period, and that test stays on the 128-bit path; only
// a stream that really splits takes the ceiling in big.Rat.
func splitFactor(s Stream) int64 {
	var p ProcSum
	if !(s.Proc > 0) || !p.Add(s.Proc) || p.LE(s.Period, 1) {
		return 1
	}
	return splitCeil(s)
}
