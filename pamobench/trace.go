package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a public entry point or
// seam of the system. Op is the closed-loop operation it belongs to; Parent
// is that operation's own span (0 for the operation spans themselves).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) ms() float64 { return (s.End - s.Start) * 1e3 }

// tracer keeps spans in memory for the traced run and writes them out when
// the benchmark ends. A disabled tracer records nothing but still tracks the
// current operation, which the op clock needs either way.
type tracer struct {
	on     bool
	t0     time.Time
	nextID atomic.Int64
	curOp  atomic.Int64 // id of the operation span now open
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// timed runs fn as a child span of the current operation.
func (t *tracer) timed(name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	op := t.curOp.Load()
	start := time.Now()
	fn()
	end := time.Now()
	t.add(span{ID: t.nextID.Add(1), Parent: op, Op: op, Name: name, Start: t.since(start), End: t.since(end)})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durationsMs returns the durations of every span with the given name.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

func (t *tracer) count(name string) int { return len(t.durationsMs(name)) }

// write dumps the spans as JSONL, ordered by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opClock cuts a closed loop into operations. Each boundary closes the
// running operation (recording its timing and, when tracing, its span) and
// opens the next one, so consecutive operations tile the timed phase.
type opClock struct {
	tr       *tracer
	smp      *sampler // nil outside the untraced run
	open     bool
	start    time.Time
	cpuStart time.Duration
	id       int64
	ops      []timing
}

func newOpClock(e *env) *opClock { return &opClock{tr: e.tr, smp: e.smp} }

func (c *opClock) begin() {
	c.start = time.Now()
	c.cpuStart = c.smp.cpu()
	c.id = c.tr.nextID.Add(1)
	c.tr.curOp.Store(c.id)
	c.open = true
}

// boundary closes the running operation and opens the next.
func (c *opClock) boundary() {
	c.end()
	c.begin()
}

func (c *opClock) end() {
	if !c.open {
		return
	}
	cpu := c.smp.cpu()
	now := time.Now()
	c.ops = append(c.ops, timing{start: c.start, end: now, cpuMs: float64(cpu-c.cpuStart) / 1e6})
	if c.tr.on {
		c.tr.add(span{ID: c.id, Op: c.id, Name: "op", Start: c.tr.since(c.start), End: c.tr.since(now)})
	}
	c.open = false
}
