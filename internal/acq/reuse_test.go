package acq

import (
	"math"
	"math/rand/v2"
	"testing"
)

func testDraws(seed uint64, nSamples, nPoints int) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0x0d12))
	z := make([][]float64, nSamples)
	for s := range z {
		z[s] = make([]float64, nPoints)
		for i := range z[s] {
			z[s][i] = rng.NormFloat64()
		}
	}
	return z
}

func TestDrawCacheReuseWithinTolerance(t *testing.T) {
	c := NewDrawCache(4)
	z := testDraws(1, 8, 5)
	probe := []float64{1, 2, 3}
	c.Store("u", probe, z)

	if got, ok := c.TryReuse("u", []float64{1, 2, 3}, 0); !ok || &got[0][0] != &z[0][0] {
		t.Fatal("identical probe at tol 0 must reuse the stored draws")
	}
	if _, ok := c.TryReuse("u", []float64{1, 2.0005, 3}, 1e-3); !ok {
		t.Fatal("probe within tol must reuse")
	}
	if _, ok := c.TryReuse("u", []float64{1, 2.01, 3}, 1e-3); ok {
		t.Fatal("probe beyond tol must refuse")
	}
	if _, ok := c.TryReuse("v", probe, 1); ok {
		t.Fatal("unknown key must refuse")
	}
	if _, ok := c.TryReuse("u", []float64{1, 2}, 1); ok {
		t.Fatal("probe length mismatch must refuse")
	}
	if _, ok := c.TryReuse("u", []float64{1, math.NaN(), 3}, 1); ok {
		t.Fatal("NaN probe must refuse")
	}
	if c.Hits() != 2 {
		t.Fatalf("Hits = %d, want 2", c.Hits())
	}
}

func TestDrawCacheProbeIsCopied(t *testing.T) {
	c := NewDrawCache(4)
	probe := []float64{1, 2}
	c.Store("u", probe, testDraws(2, 4, 3))
	probe[0] = 99 // caller mutates its buffer after Store
	if _, ok := c.TryReuse("u", []float64{1, 2}, 0); !ok {
		t.Fatal("stored probe must be an independent copy")
	}
}

func TestDrawCacheFIFOEviction(t *testing.T) {
	c := NewDrawCache(2)
	c.Store("a", []float64{1}, testDraws(3, 4, 3))
	c.Store("b", []float64{2}, testDraws(4, 4, 3))
	c.Store("a", []float64{1.5}, testDraws(5, 4, 3)) // refresh, not a new slot
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Store("c", []float64{3}, testDraws(6, 4, 3)) // evicts "a" (oldest)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", c.Len())
	}
	if _, ok := c.TryReuse("a", []float64{1.5}, 1); ok {
		t.Fatal("oldest entry must have been evicted")
	}
	if _, ok := c.TryReuse("b", []float64{2}, 0); !ok {
		t.Fatal("entry b must survive eviction")
	}
	if _, ok := c.TryReuse("c", []float64{3}, 0); !ok {
		t.Fatal("entry c must survive eviction")
	}
	// The refresh of "a" installed the new probe before eviction; a fresh
	// store of "a" now keys on whatever probe comes with it.
	c.Store("a", []float64{7}, testDraws(9, 4, 3))
	if _, ok := c.TryReuse("a", []float64{7}, 0); !ok {
		t.Fatal("re-stored entry lookup failed")
	}
}
