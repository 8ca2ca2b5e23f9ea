// Package sched implements the paper's Section 4.1: the group-based
// heuristic zero-jitter scheduling algorithm (Algorithm 1), the high-rate
// stream splitting of Section 3, and the Const1/Const2 feasibility checks.
//
// Frame periods are exact rationals (seconds = Num/Den), so the greatest
// common divisor in Const2 — gcd(1/s₁, …, 1/s_K) = 1/lcm(s₁, …, s_K) — is
// computed without floating-point error.
package sched

import "fmt"

// Rational is an exact non-negative rational number Num/Den (seconds).
type Rational struct {
	Num, Den int64
}

// RatFromFPS returns the frame period 1/fps as a rational.
func RatFromFPS(fps int64) Rational {
	if fps <= 0 {
		panic(fmt.Sprintf("sched: non-positive fps %d", fps))
	}
	return Rational{Num: 1, Den: fps}
}

// Rat returns num/den reduced to lowest terms.
func Rat(num, den int64) Rational {
	if den <= 0 || num < 0 {
		panic(fmt.Sprintf("sched: invalid rational %d/%d", num, den))
	}
	return Rational{Num: num, Den: den}.reduce()
}

func (r Rational) reduce() Rational {
	if r.Num == 0 {
		return Rational{0, 1}
	}
	g := gcd64(r.Num, r.Den)
	return Rational{r.Num / g, r.Den / g}
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

func lcm64(a, b int64) int64 { return a / gcd64(a, b) * b }

// Float returns the rational as a float64.
func (r Rational) Float() float64 { return float64(r.Num) / float64(r.Den) }

// Mul returns r scaled by the positive integer k.
func (r Rational) Mul(k int64) Rational {
	if k <= 0 {
		panic(fmt.Sprintf("sched: non-positive multiplier %d", k))
	}
	return Rational{r.Num * k, r.Den}.reduce()
}

// Cmp returns -1, 0, or 1 as r <, ==, > s.
func (r Rational) Cmp(s Rational) int {
	l := r.Num * s.Den
	m := s.Num * r.Den
	switch {
	case l < m:
		return -1
	case l > m:
		return 1
	default:
		return 0
	}
}

// RatGCD returns the exact greatest common divisor of two rationals:
// gcd(a/b, c/d) = gcd(a·d, c·b)/(b·d).
func RatGCD(a, b Rational) Rational {
	if a.Num == 0 {
		return b.reduce()
	}
	if b.Num == 0 {
		return a.reduce()
	}
	num := gcd64(a.Num*b.Den, b.Num*a.Den)
	return Rational{num, a.Den * b.Den}.reduce()
}

// IsMultipleOf reports whether r = t·s for some positive integer t.
func (r Rational) IsMultipleOf(s Rational) bool {
	if s.Num == 0 {
		return false
	}
	// r/s = (r.Num·s.Den)/(r.Den·s.Num) must be a positive integer.
	num := r.Num * s.Den
	den := r.Den * s.Num
	return num > 0 && num%den == 0
}

// String renders the rational for diagnostics.
func (r Rational) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }
