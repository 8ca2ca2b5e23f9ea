package acq

import (
	"math"
	"sync"
)

// DrawCache memoizes shared joint posterior draws across acquisition epochs.
//
// The shared-sample path (SharedScorer) pays one joint sampling pass over the
// candidate ∪ observation universe per batch selection — by far the most
// expensive step of an acquisition round once the outcome models have
// accumulated observations. When the same universe is scored again (e.g. a
// periodic fleet re-solve replaying the same candidate stream with
// warm-started models) and the posterior has barely moved, re-drawing buys
// nothing: the cached draws come from a statistically indistinguishable
// distribution. DrawCache keeps the draw matrix of recent universes keyed by
// an exact universe fingerprint, guarded by a posterior probe — mean/variance
// summaries at the universe points — so reuse happens only when the caller's
// current posterior sits within tol of the one that produced the draws.
//
// Entries are evicted FIFO beyond the capacity passed to NewDrawCache, so a
// long-running fleet cannot grow the cache without bound. The zero value is
// not usable; construct with NewDrawCache. All methods are safe for
// concurrent use — one cache may be shared by many Scheduler instances.
type DrawCache struct {
	mu      sync.Mutex
	entries map[string]*drawEntry
	order   []string // insertion order, oldest first
	cap     int
	hits    uint64
}

type drawEntry struct {
	probe []float64
	z     [][]float64
}

// DefaultDrawCacheCap bounds the number of cached universes when
// NewDrawCache is given a non-positive capacity.
const DefaultDrawCacheCap = 32

// NewDrawCache returns an empty cache holding at most capEntries universes
// (DefaultDrawCacheCap when capEntries <= 0).
func NewDrawCache(capEntries int) *DrawCache {
	if capEntries <= 0 {
		capEntries = DefaultDrawCacheCap
	}
	return &DrawCache{
		entries: make(map[string]*drawEntry, capEntries),
		cap:     capEntries,
	}
}

// TryReuse returns the cached draw matrix for key when one exists and every
// probe component moved by at most tol since the draws were taken. The probe
// must be built the same way as the one passed to Store — a length mismatch
// is treated as a miss, never an error. The returned matrix is shared with
// the cache: callers must treat it as read-only.
//
// TryReuse performs no allocations.
func (c *DrawCache) TryReuse(key string, probe []float64, tol float64) ([][]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || len(e.probe) != len(probe) {
		return nil, false
	}
	for i, v := range probe {
		d := v - e.probe[i]
		if math.IsNaN(d) || d > tol || d < -tol {
			return nil, false
		}
	}
	c.hits++
	return e.z, true
}

// Store records the draw matrix z for the universe identified by key, taken
// under the posterior summarized by probe. The probe is copied; z is stored
// as-is (the caller hands over ownership — SampleBenefit results are built
// fresh per round, so no caller mutates them afterwards). Storing an existing
// key refreshes its probe and draws without changing its eviction position.
func (c *DrawCache) Store(key string, probe []float64, z [][]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.probe = append(e.probe[:0], probe...)
		e.z = z
		return
	}
	for len(c.order) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = &drawEntry{probe: append([]float64(nil), probe...), z: z}
	c.order = append(c.order, key)
}

// Len reports the number of cached universes.
func (c *DrawCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits reports the cumulative number of successful TryReuse calls.
func (c *DrawCache) Hits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}
