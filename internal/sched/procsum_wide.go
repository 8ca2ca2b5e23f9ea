package sched

import (
	"math"
	"math/big"
)

// wideNum is ProcSum's promoted value, held whole (the shift unused). A
// ProcSum never mutates one in place, so copies may share it safely.
type wideNum = big.Rat

// rat returns s as an exact big.Rat the caller must not mutate.
func (s ProcSum) rat() *big.Rat {
	if s.wide != nil {
		return s.wide
	}
	n := new(big.Int).SetUint64(s.n[1])
	n.Lsh(n, 64)
	n.Or(n, new(big.Int).SetUint64(s.n[0]))
	return new(big.Rat).SetFrac(n, new(big.Int).Lsh(big.NewInt(1), s.shift))
}

// addWide adds the finite p on the math/big path.
func (s *ProcSum) addWide(p float64) {
	*s = ProcSum{wide: new(big.Rat).Add(s.rat(), new(big.Rat).SetFloat64(p))}
}

// addWideSum adds o on the math/big path.
func (s *ProcSum) addWideSum(o ProcSum) {
	*s = ProcSum{wide: new(big.Rat).Add(s.rat(), o.rat())}
}

// leWide is LE on the math/big path, for promoted (possibly negative) sums.
func (s ProcSum) leWide(budget Rational, speed float64) bool {
	bound := new(big.Rat).SetFrac64(budget.Num, budget.Den)
	return s.rat().Cmp(bound.Mul(bound, new(big.Rat).SetFloat64(speed))) <= 0
}

// splitCeil is splitFactor for a stream that does not fit its period:
// ⌈Proc/Period⌉ in big.Rat arithmetic, 1 for a non-positive ratio,
// saturating at MaxInt64.
func splitCeil(s Stream) int64 {
	sp := new(big.Rat).SetFloat64(s.Proc)
	sp.Mul(sp, big.NewRat(s.Period.Den, s.Period.Num)) // Proc / Period, exact
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
