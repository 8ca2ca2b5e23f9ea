package main

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/eva"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/pref"
	"repro/internal/runtime"
	"repro/internal/videosim"
)

// placer is what the controller loop can ask of a scheduler: the plain,
// mask-aware and per-cell decide paths. A wrapper must forward all three,
// or the runtime's type assertions send it down a different path.
type placer interface {
	runtime.MaskAware
	runtime.CellDecider
}

// timedSched times every decide call. Cells decide concurrently, so the
// tracer's span list is the only shared state and it is locked.
type timedSched struct {
	inner placer
	tr    *tracer
}

func (s *timedSched) Decide(ctx context.Context, sys *objective.System, epoch int) (d eva.Decision, err error) {
	s.tr.timed("decide", func() { d, err = s.inner.Decide(ctx, sys, epoch) })
	return d, err
}

func (s *timedSched) DecideMasked(ctx context.Context, sys *objective.System, healthy []bool, epoch int) (d eva.Decision, err error) {
	s.tr.timed("decide", func() { d, err = s.inner.DecideMasked(ctx, sys, healthy, epoch) })
	return d, err
}

func (s *timedSched) DecideCell(ctx context.Context, sys *objective.System, videos []int, epoch int) (cfgs []videosim.Config, err error) {
	s.tr.timed("decide_cell", func() { cfgs, err = s.inner.DecideCell(ctx, sys, videos, epoch) })
	return cfgs, err
}

// epochHealth wraps the loop's health seam. The loop calls Advance once at
// the top of every epoch, so its calls are the epoch boundaries as seen from
// outside the runtime; it also tells the other wrappers which epoch is open.
type epochHealth struct {
	inner runtime.HealthSource
	clock *opClock
	tr    *tracer
	epoch atomic.Int64
}

func (h *epochHealth) Advance(epoch int) (ev []fault.Event) {
	if epoch > 0 {
		h.clock.boundary()
	}
	h.epoch.Store(int64(epoch))
	h.tr.timed("health_advance", func() { ev = h.inner.Advance(epoch) })
	return ev
}

func (h *epochHealth) State() fault.State { return h.inner.State() }

// failures collects the epochs in which an evaluation or a wire call failed.
type failures struct {
	mu     sync.Mutex
	epochs map[int]bool
}

func (f *failures) mark(epoch int) {
	f.mu.Lock()
	if f.epochs == nil {
		f.epochs = map[int]bool{}
	}
	f.epochs[epoch] = true
	f.mu.Unlock()
}

func (f *failures) has(epoch int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epochs[epoch]
}

// timedEval wraps the loop's per-server evaluator seam: over the wire this
// is one dispatch to an agent and the wait for its fenced result.
type timedEval struct {
	inner runtime.ServerEvaluator
	tr    *tracer
	fail  *failures
}

func (e *timedEval) EvaluateServer(ctx context.Context, epoch, server int, specs []cluster.StreamSpec, srv cluster.Server, horizon float64) (r runtime.ServerEvalResult, err error) {
	e.tr.timed("eval_server", func() { r, err = e.inner.EvaluateServer(ctx, epoch, server, specs, srv, horizon) })
	if err != nil {
		e.fail.mark(epoch)
	}
	return r, err
}

// timedTransport wraps a ctlplane.Client's HTTP transport. Every stream
// register/deregister the churn driver posts goes through it; a transport
// error or an error status fails the epoch the post was made in.
type timedTransport struct {
	inner http.RoundTripper
	tr    *tracer
	epoch *atomic.Int64
	fail  *failures
}

func (t *timedTransport) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	name := "wire_call"
	if strings.HasPrefix(req.URL.Path, "/v1/streams") {
		name = "stream_op"
	}
	t.tr.timed(name, func() { resp, err = t.inner.RoundTrip(req) })
	if err != nil || resp.StatusCode >= 400 {
		t.fail.mark(int(t.epoch.Load()))
	}
	return resp, err
}

// countingDM wraps the decision maker PaMO learns the preference from.
type countingDM struct {
	inner pref.DecisionMaker
	tr    *tracer
}

func (d *countingDM) Prefer(y1, y2 objective.Vector) (b bool) {
	d.tr.timed("prefer", func() { b = d.inner.Prefer(y1, y2) })
	return b
}
