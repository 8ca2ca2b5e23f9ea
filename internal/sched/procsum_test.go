package sched

import (
	"math"
	"math/big"
	"testing"
)

// ratSum is the big.Rat oracle for a ProcSum's exact value: Σ procs.
func ratSum(procs []float64) *big.Rat {
	sum := new(big.Rat)
	for _, p := range procs {
		sum.Add(sum, new(big.Rat).SetFloat64(p))
	}
	return sum
}

// ratLE is the big.Rat oracle for ProcSum.LE: Σ procs ≤ budget·speed.
func ratLE(procs []float64, budget Rational, speed float64) bool {
	bound := new(big.Rat).SetFrac64(budget.Num, budget.Den)
	bound.Mul(bound, new(big.Rat).SetFloat64(speed))
	return ratSum(procs).Cmp(bound) <= 0
}

// ratSplitFactor is the big.Rat oracle for splitFactor on a positive
// period: ⌈Proc/Period⌉, 1 when no split is needed, MaxInt64 when the
// ceiling does not fit an int64.
func ratSplitFactor(s Stream) int64 {
	sp := new(big.Rat).SetFloat64(s.Proc)
	if sp == nil || sp.Sign() <= 0 {
		return 1
	}
	sp.Mul(sp, big.NewRat(s.Period.Den, s.Period.Num))
	if sp.Cmp(big.NewRat(1, 1)) <= 0 {
		return 1
	}
	q, rem := new(big.Int).QuoRem(sp.Num(), sp.Denom(), new(big.Int))
	if rem.Sign() > 0 {
		q.Add(q, big.NewInt(1))
	}
	if !q.IsInt64() {
		return math.MaxInt64
	}
	return q.Int64()
}

// fuzzProc draws one processing time from the classes the kernel must get
// right: zero, subnormals, the far ends of the exponent range, sums that
// carry out of 128 bits, negatives, the decimal ties (float64(0.05) is just above 1/20), and ordinary procs.
func fuzzProc(next func() uint64) float64 {
	r := next()
	switch r % 10 {
	case 0:
		return 0
	case 1:
		return math.Float64frombits(next() & (1<<52 - 1)) // subnormal (or 0)
	case 2:
		return math.Ldexp(1+float64(next()%1000)/1000, 1000-int(next()%40))
	case 3:
		return math.Ldexp(1+float64(next()%1000)/1000, -1000-int(next()%40))
	case 4:
		return -float64(next()%1000+1) / 4096
	case 5:
		return []float64{0.05, 0.1, 0.04, 1.0 / 3, 0.2, 0.025}[next()%6]
	case 6: // 127 bits apart: two of the large one carry out of bit 127
		return []float64{0x1.fffffffffffffp+70, 0x1p-57}[next()%2]
	case 7:
		f := math.Float64frombits(next())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 1
		}
		return f
	default:
		return 0.001 + float64(next()%500_000)/1e6
	}
}

// FuzzProcSumVsBig checks the 128-bit kernel against big.Rat: the exact
// value and LE over a sequence of procs (built by Add, by AddSum of two
// halves, and through a by-value trial copy that must not disturb the
// original), and splitFactor per proc, across the whole float64 exponent
// range.
func FuzzProcSumVsBig(f *testing.F) {
	f.Add(uint64(1), uint8(4), int64(1), int64(10), 1.0)
	f.Add(uint64(2), uint8(2), int64(1), int64(20), 0.5)
	f.Add(uint64(3), uint8(9), int64(7), int64(25), 1.25)
	f.Add(uint64(4), uint8(1), int64(0), int64(1), 2.0)
	f.Add(uint64(5), uint8(12), int64(1<<62), int64(3), 0x1p-60)
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, num, den int64, speed float64) {
		x := seed
		next := func() uint64 { // splitmix64
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		procs := make([]float64, int(n)%12)
		for i := range procs {
			procs[i] = fuzzProc(next)
		}
		if num < 0 {
			num = -(num + 1)
		}
		if den <= 0 {
			den = 1 - den%(1<<40)
		}
		budget := Rational{Num: num, Den: den}
		switch next() % 3 {
		case 0: // the gcd budgets placement actually uses
			budget = RatFromFPS([]int64{1, 5, 10, 20, 25, 30}[next()%6])
		case 1: // a budget one grid step around the sum: the boundary
			var f float64
			for _, p := range procs {
				f += p
			}
			if b := math.Floor(f * float64(den)); b >= 1 && b < 1<<62 {
				budget.Num = int64(b) - 1 + int64(next()%3)
			}
		}

		var sum, lo, hi ProcSum
		for i, p := range procs {
			sum.Add(p)
			if i < len(procs)/2 {
				lo.Add(p)
			} else {
				hi.Add(p)
			}
		}
		lo.AddSum(hi)
		ref := ratSum(procs)
		if sum.rat().Cmp(ref) != 0 {
			t.Fatalf("Σ%v: Add gives %v, big.Rat %v", procs, sum.rat(), ref)
		}
		if lo.rat().Cmp(ref) != 0 {
			t.Fatalf("Σ%v: AddSum gives %v, big.Rat %v", procs, lo.rat(), ref)
		}
		if math.IsNaN(speed) || math.IsInf(speed, 0) || speed <= 0 {
			if sum.LE(budget, speed) {
				t.Fatalf("LE admitted speed %v", speed)
			}
			speed = 1
		}
		want := ratLE(procs, budget, speed)
		if got := sum.LE(budget, speed); got != want {
			t.Fatalf("Σ%v ≤ %v·%v: Add gives %v, big.Rat %v", procs, budget, speed, got, want)
		}
		if got := lo.LE(budget, speed); got != want {
			t.Fatalf("Σ%v ≤ %v·%v: AddSum gives %v, big.Rat %v", procs, budget, speed, got, want)
		}
		trial := sum
		trial.Add(fuzzProc(next))
		trial.AddSum(lo)
		if got := sum.LE(budget, speed); got != want || sum.rat().Cmp(ref) != 0 {
			t.Fatalf("a trial copy changed the original sum to %v", sum.rat())
		}
		if sum.Add(math.NaN()) || sum.Add(math.Inf(-1)) {
			t.Fatal("Add accepted a non-finite proc")
		}

		period := Rational{Num: 1 + num%(1<<40), Den: den}
		for _, p := range procs {
			s := Stream{Period: period, Proc: p}
			if got, want := splitFactor(s), ratSplitFactor(s); got != want {
				t.Fatalf("splitFactor(p=%v, T=%v) = %d, big.Rat %d", p, period, got, want)
			}
		}
	})
}

// TestProcSumExactValue pins the accumulated value itself, not only LE
// verdicts: after every Add, and after AddSum and a by-value trial copy,
// the sum equals the big.Rat sum exactly. 1e-9 sits 30 bits below the
// others, so a lost low bit of any addend shows.
func TestProcSumExactValue(t *testing.T) {
	vals := []float64{1.0 / 3.0, 0.1, 2.5e-3, 1e-9, 0.031}
	var sum ProcSum
	for i, v := range vals {
		if !sum.Add(v) {
			t.Fatalf("Add(%v) rejected a finite value", v)
		}
		if ref := ratSum(vals[:i+1]); sum.rat().Cmp(ref) != 0 {
			t.Fatalf("Σ%v = %v, big.Rat %v", vals[:i+1], sum.rat(), ref)
		}
	}
	if sum.wide != nil {
		t.Fatal("ordinary procs promoted to math/big")
	}
	var lo, hi ProcSum
	for i, v := range vals {
		if i < 2 {
			lo.Add(v)
		} else {
			hi.Add(v)
		}
	}
	lo.AddSum(hi)
	trial := sum
	trial.Add(0.5)
	ref := ratSum(vals)
	if lo.rat().Cmp(ref) != 0 || sum.rat().Cmp(ref) != 0 {
		t.Fatalf("AddSum gives %v, original after trial %v, big.Rat %v", lo.rat(), sum.rat(), ref)
	}
	if want := new(big.Rat).Add(ref, big.NewRat(1, 2)); trial.rat().Cmp(want) != 0 {
		t.Fatalf("trial = %v, big.Rat %v", trial.rat(), want)
	}
}

// TestProcSumWideFallback forces exponent spans 128 bits cannot hold, a
// carry out of bit 127 and a negative addend: each promotes to the math/big path, bumps the fallback
// counter, and still decides exactly what big.Rat decides.
func TestProcSumWideFallback(t *testing.T) {
	cases := [][]float64{
		{0.1, 0x1p-1000},     // span ≈ 950 bits
		{0x1p+900, 0.05},     // huge next to ordinary
		{0.05, 5e-324, 0.05}, // a subnormal next to normal procs
		{0x1.fffffffffffffp+70, 0x1p-57, 0x1.fffffffffffffp+70}, // carry out of bit 127
		{1.0 / 32, 1.0 / 64, -1.0 / 64},                         // negative addend
	}
	for _, procs := range cases {
		before := ExactFallbacks()
		var sum ProcSum
		for _, p := range procs {
			sum.Add(p)
		}
		if ExactFallbacks() <= before {
			t.Fatalf("%v: no promotion counted", procs)
		}
		if sum.wide == nil {
			t.Fatalf("%v: sum stayed on the 128-bit path", procs)
		}
		trial := sum
		trial.Add(1)
		if ref := ratSum(procs); sum.rat().Cmp(ref) != 0 {
			t.Fatalf("%v: promoted sum %v (after a trial copy), big.Rat %v", procs, sum.rat(), ref)
		}
		for _, budget := range []Rational{RatFromFPS(10), RatFromFPS(20), Rat(1, 32), Rat(1, 1)} {
			for _, speed := range []float64{1, 0.5, 3} {
				if got, want := sum.LE(budget, speed), ratLE(procs, budget, speed); got != want {
					t.Fatalf("Σ%v ≤ %v·%v: got %v, big.Rat %v", procs, budget, speed, got, want)
				}
			}
		}
	}
}

// TestProcSumFastPathStaysFast pins the common case: positive procs of
// similar magnitude, summed and compared, never promote.
func TestProcSumFastPathStaysFast(t *testing.T) {
	before := ExactFallbacks()
	procs := make([]float64, 4096)
	var sum ProcSum
	for i := range procs {
		procs[i] = 0.001 + float64(i%97)/1e5
		sum.Add(procs[i])
	}
	if sum.wide != nil || ExactFallbacks() != before {
		t.Fatal("ordinary procs promoted to math/big")
	}
	for _, budget := range []Rational{Rat(6, 1), Rat(7, 1), Rat(6223, 1000), Rat(6224, 1000)} {
		if got, want := sum.LE(budget, 1), ratLE(procs, budget, 1); got != want {
			t.Fatalf("Σ ≤ %v: got %v, big.Rat %v", budget, got, want)
		}
	}
}
