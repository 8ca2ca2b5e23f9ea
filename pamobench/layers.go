package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	goruntime "runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// layerData is everything the traced pass measured.
type layerData struct {
	cpu, alloc  *shares
	counters    map[string]uint64 // registry of the first traced round
	ledgers     []obs.EpochLedger // ledgers of the first traced round
	mvn         uint64            // MVN fallbacks in the first traced round
	prefer      int               // decision-maker calls in the first traced round
	spans       []*tracer         // every traced round
	phaseSelf   map[string]float64
	ops         int // operations over every traced round
	tracedP50   float64
	untracedP50 float64
}

func (d *layerData) spanP50(names ...string) float64 {
	var xs []float64
	for _, t := range d.spans {
		for _, n := range names {
			xs = append(xs, t.durationsMs(n)...)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

func (d *layerData) ratio(num, den string) float64 {
	if d.counters[den] == 0 {
		return 0
	}
	return float64(d.counters[num]) / float64(d.counters[den])
}

func (d *layerData) ledgerMean(bucket func(obs.EpochLedger) float64) float64 {
	if len(d.ledgers) == 0 {
		return 0
	}
	t := 0.0
	for _, l := range d.ledgers {
		t += bucket(l)
	}
	return t / float64(len(d.ledgers))
}

// layerMetric is one per-layer metric: its name, unit and how to read it.
type layerMetric struct {
	name, unit string
	get        func(d *layerData) float64
}

func cpuSelf(l string) func(*layerData) float64 {
	return func(d *layerData) float64 { return d.cpu.pct(d.cpu.self[l]) }
}

func cpuIncl(l string) func(*layerData) float64 {
	return func(d *layerData) float64 { return d.cpu.pct(d.cpu.incl[l]) }
}

func allocPct(l string) func(*layerData) float64 {
	return func(d *layerData) float64 { return d.alloc.pct(d.alloc.self[l]) }
}

func count(name string) func(*layerData) float64 {
	return func(d *layerData) float64 { return float64(d.counters[name]) }
}

// layerMetrics lists every per-layer metric in report order. Counts cover
// the first traced round, which is fixed work for the seed; shares and span
// percentiles cover every traced round.
var layerMetrics = func() []layerMetric {
	var ms []layerMetric
	for _, l := range []string{"mat", "kernel", "gp", "prefgp", "pref", "acq", "pamo", "sched", "check"} {
		ms = append(ms,
			layerMetric{l + ".cpu_self_pct", "%", cpuSelf(l)},
			layerMetric{l + ".cpu_incl_pct", "%", cpuIncl(l)},
			layerMetric{l + ".alloc_pct", "%", allocPct(l)})
	}
	for _, p := range []string{"profiling", "outcome_model", "preference", "solution"} {
		p := p
		ms = append(ms, layerMetric{"pamo." + p + "_self_s", "s", func(d *layerData) float64 { return d.phaseSelf[p] }})
	}
	ms = append(ms,
		layerMetric{"pamo.iterations", "count", count("pamo_iterations_total")},
		layerMetric{"pamo.profiles", "count", count("pamo_profiles_total")},
		layerMetric{"pref.prefer_calls", "count", func(d *layerData) float64 { return float64(d.prefer) }},
		layerMetric{"gp.mvn_fallbacks", "count", func(d *layerData) float64 { return float64(d.mvn) }},
		layerMetric{"gp.chol_incremental_ratio", "ratio", func(d *layerData) float64 {
			inc, ref := d.counters["pamo_chol_incremental_total"], d.counters["pamo_chol_refactorize_total"]
			if inc+ref == 0 {
				return 0
			}
			return float64(inc) / float64(inc+ref)
		}},
		layerMetric{"math_big.cpu_pct", "%", func(d *layerData) float64 { return d.cpu.pct(d.cpu.mathBig) }},
		layerMetric{"runtime.decide_ms", "ms", func(d *layerData) float64 { return d.spanP50("decide", "decide_cell") }},
		layerMetric{"shard.cpu_incl_pct", "%", cpuIncl("shard")},
		layerMetric{"shard.commits", "count", count("shard_commits_total")},
		layerMetric{"shard.conflicts", "count", count("shard_conflicts_total")},
		layerMetric{"shard.retries", "count", count("shard_retries_total")},
		layerMetric{"shard.fallbacks", "count", count("shard_fallbacks_total")},
		layerMetric{"shard.commit_ratio", "ratio", func(d *layerData) float64 {
			c, x := d.counters["shard_commits_total"], d.counters["shard_conflicts_total"]
			if c+x == 0 {
				return 0
			}
			return float64(c) / float64(c+x)
		}},
		layerMetric{"hungarian.cpu_self_pct", "%", cpuSelf("hungarian")},
		layerMetric{"cluster.cpu_self_pct", "%", cpuSelf("cluster")},
		layerMetric{"cluster.alloc_pct", "%", allocPct("cluster")},
		layerMetric{"ctlplane.cpu_incl_pct", "%", cpuIncl("ctlplane")},
		layerMetric{"ctlplane.eval_rtt_ms", "ms", func(d *layerData) float64 { return d.spanP50("eval_server") }},
		layerMetric{"ctlplane.stream_op_ms", "ms", func(d *layerData) float64 { return d.spanP50("stream_op") }},
		layerMetric{"ctlplane.dispatches", "count", count("ctlplane_dispatches_total")},
		layerMetric{"ctlplane.results", "count", count("ctlplane_results_total")},
		layerMetric{"ctlplane.polls", "count", count("ctlplane_polls_total")},
		layerMetric{"ctlplane.stale_results", "count", count("ctlplane_stale_results_total")},
		layerMetric{"ctlplane.eval_timeouts", "count", count("ctlplane_eval_timeouts_total")},
		layerMetric{"ctlplane.result_ratio", "ratio", func(d *layerData) float64 { return d.ratio("ctlplane_results_total", "ctlplane_dispatches_total") }},
		layerMetric{"ctlplane.polls_per_result", "ratio", func(d *layerData) float64 { return d.ratio("ctlplane_polls_total", "ctlplane_results_total") }},
		layerMetric{"runtime.replans", "count", count("runtime_replans_total")},
		layerMetric{"runtime.churn_epochs", "count", count("runtime_churn_epochs_total")},
		layerMetric{"runtime.churn_ops", "count", count("runtime_churn_ops_total")},
		layerMetric{"runtime.degraded_epochs", "count", count("runtime_degraded_epochs_total")},
		layerMetric{"runtime.eval_failures", "count", count("runtime_eval_failures_total")},
		layerMetric{"fault.events", "count", count("fault_events_total")},
		layerMetric{"check.checks", "count", count("check_checks_total")},
		layerMetric{"check.violations", "count", count("check_violations_total")},
		layerMetric{"ledger.drift_loss", "benefit", func(d *layerData) float64 {
			return d.ledgerMean(func(l obs.EpochLedger) float64 { return l.DriftLoss })
		}},
		layerMetric{"ledger.fault_loss", "benefit", func(d *layerData) float64 {
			return d.ledgerMean(func(l obs.EpochLedger) float64 { return l.FaultLoss })
		}},
		layerMetric{"ledger.shed_loss", "benefit", func(d *layerData) float64 {
			return d.ledgerMean(func(l obs.EpochLedger) float64 { return l.ShedLoss })
		}},
		layerMetric{"gc.cpu_pct", "%", func(d *layerData) float64 { return d.cpu.pct(d.cpu.gc) }},
		layerMetric{"trace.op_cpu_p50_ms", "ms", func(d *layerData) float64 { return d.tracedP50 }},
		layerMetric{"trace.untraced_op_cpu_p50_ms", "ms", func(d *layerData) float64 { return d.untracedP50 }},
	)
	return ms
}()

// traced runs the seed's first pool round untraced as the overhead
// reference, then traced rounds in the seed's order with spans, the
// recorder, and CPU and allocation profiles until the budget is spent. The
// first traced round's spans are written to spanPath ("" skips writing
// them).
func traced(ctx context.Context, out io.Writer, w workload, seed uint64, budget time.Duration, size sizes, spanPath string) result {
	goruntime.MemProfileRate = 64 << 10
	start := time.Now()
	order := w.order(seed)
	ref := w.run(ctx, seed, order[0], &env{tr: newTracer(false), size: size})

	d := &layerData{phaseSelf: map[string]float64{}, untracedP50: quantile(cpuMs(ref.ops), 0.5)}
	attempted, failed := ref.attempted, ref.failed
	var cpuProf bytes.Buffer
	before := memSnapshot()
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		fmt.Fprintln(out, "cpu profile:", err)
		failed++
	}
	var firstTraced []float64
	for r := 0; ; r++ {
		t0 := time.Now()
		// Only solve needs the event stream, for the PaMO phase spans'
		// parentage; the controller workloads would mostly pay for encoding
		// per-server DES events.
		var events bytes.Buffer
		rec := obs.NewRecorder(nil)
		if w.name == "solve" {
			rec = obs.NewRecorder(&events)
		}
		tr := newTracer(true)
		rd := w.run(ctx, seed, order[r%len(order)], &env{tr: tr, rec: rec, size: size})
		if err := rec.Close(); err != nil {
			fmt.Fprintln(out, "recorder:", err)
			failed++
		}
		attempted += rd.attempted
		failed += rd.failed
		d.ops += len(rd.ops)
		d.spans = append(d.spans, tr)
		evs, err := obs.ReadEvents(&events)
		if err != nil {
			fmt.Fprintln(out, "events:", err)
			failed++
		}
		for name, s := range phaseSelf(evs) {
			d.phaseSelf[name] += s
		}
		if r == 0 {
			firstTraced = cpuMs(rd.ops)
			d.counters = rec.Registry().Snapshot().Counters
			d.ledgers = rec.Ledgers()
			d.mvn = rd.mvn
			d.prefer = tr.count("prefer")
			if spanPath != "" {
				if err := tr.write(spanPath); err != nil {
					fmt.Fprintln(out, "spans:", err)
				}
			}
		}
		if time.Since(start)+time.Since(t0)/2 >= budget {
			break
		}
	}
	pprof.StopCPUProfile()
	d.alloc = allocShares(before, memSnapshot())
	cpu, err := cpuShares(cpuProf.Bytes())
	if err != nil {
		fmt.Fprintln(out, err)
		failed++
		cpu = newShares()
	}
	d.cpu = cpu
	if w.name == "solve" {
		for k := range d.phaseSelf {
			d.phaseSelf[k] /= float64(d.ops)
		}
	}
	d.tracedP50 = quantile(firstTraced, 0.5)

	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{lm.get(d), lm.unit}
	}
	fmt.Fprintf(out, "traced rounds=%d ops=%d cpu samples=%.0f ms; spans of the first traced round in %q\n",
		len(d.spans), d.ops, d.cpu.total/1e6, spanPath)
	fmt.Fprintf(out, "tracing overhead on the first round: op CPU p50 %.4g ms traced vs %.4g ms untraced (%+.1f%%)\n",
		d.tracedP50, d.untracedP50, 100*(d.tracedP50/d.untracedP50-1))
	splitTable(out, w, d)
	return report(out, m, attempted, failed)
}

// phaseSelf sums, per PaMO phase span, its duration minus its children's.
func phaseSelf(evs []obs.Event) map[string]float64 {
	children := map[uint64]float64{}
	for _, e := range evs {
		if e.Kind == "span" && e.Parent != 0 {
			children[e.Parent] += e.DurSec
		}
	}
	out := map[string]float64{}
	for _, e := range evs {
		switch e.Name {
		case "profiling", "outcome_model", "preference", "solution":
			if e.Kind == "span" {
				out[e.Name] += e.DurSec - children[e.Span]
			}
		}
	}
	return out
}

// expectation is one CPU share a prototype of this benchmark measured on
// a 2-core host before the benchmark existed.
type expectation struct {
	workload, label string
	want            float64
	get             func(d *layerData) float64
}

var expectations = []expectation{
	{"solve", "mat self", 46, cpuSelf("mat")},
	{"solve", "prefgp self", 13, cpuSelf("prefgp")},
	{"solve", "gp self", 10, cpuSelf("gp")},
	{"solve", "kernel self", 4, cpuSelf("kernel")},
	{"solve", "sched self", 12, cpuSelf("sched")},
	{"solve", "shard incl", 0, cpuIncl("shard")},
	{"solve", "ctlplane incl", 0, cpuIncl("ctlplane")},
	{"solve", "runtime incl", 0, cpuIncl("runtime")},
	{"fleet", "sched incl", 70, cpuIncl("sched")},
	{"fleet", "math/big", 63, func(d *layerData) float64 { return d.cpu.pct(d.cpu.mathBig) }},
	{"fleet", "check incl", 40, cpuIncl("check")},
	{"fleet", "cluster self", 16, cpuSelf("cluster")},
	{"fleet", "shard self", 4, cpuSelf("shard")},
	{"fleet", "ctlplane incl", 0, cpuIncl("ctlplane")},
	{"wire_churn", "ctlplane self", 30, cpuSelf("ctlplane")},
	{"wire_churn", "sched self", 28, cpuSelf("sched")},
	{"wire_churn", "hungarian self", 20, cpuSelf("hungarian")},
	{"wire_churn", "cluster self", 9, cpuSelf("cluster")},
}

// splitTable prints the measured CPU split beside the prototype's, then
// every layer's self/inclusive/alloc shares.
func splitTable(out io.Writer, w workload, d *layerData) {
	fmt.Fprintf(out, "\nCPU split vs the prototype measurement (%% of CPU samples; agrees = within max(5, 35%% of expected) points)\n")
	fmt.Fprintf(out, "  %-16s %9s %9s  %s\n", "share", "expected", "measured", "verdict")
	for _, x := range expectations {
		if x.workload != w.name {
			continue
		}
		got := x.get(d)
		verdict := "agrees"
		if math.Abs(got-x.want) > math.Max(5, 0.35*x.want) {
			verdict = "DISAGREES"
		}
		fmt.Fprintf(out, "  %-16s %9.1f %9.1f  %s\n", x.label, x.want, got, verdict)
	}
	fmt.Fprintf(out, "\n  %-12s %9s %9s %9s\n", "layer", "self%", "incl%", "alloc%")
	for _, l := range []string{"mat", "kernel", "gp", "prefgp", "pref", "acq", "pamo", "sched", "check", "shard", "hungarian", "cluster", "ctlplane", "runtime", "obs", "eva", "videosim", "objective", "fault"} {
		fmt.Fprintf(out, "  %-12s %9.1f %9.1f %9.1f\n", l, d.cpu.pct(d.cpu.self[l]), d.cpu.pct(d.cpu.incl[l]), d.alloc.pct(d.alloc.self[l]))
	}
	fmt.Fprintf(out, "  %-12s %9.1f\n  %-12s %9.1f\n\n", "math/big", d.cpu.pct(d.cpu.mathBig), "gc (bg)", d.cpu.pct(d.cpu.gc))
}

// cpuMs is the unscaled CPU time of each op. The traced run runs no kernel
// sampler, so that the profiles show the program alone; its round with
// tracing and its round without run back to back, so they compare
// unscaled.
func cpuMs(ops []timing) []float64 {
	ms := make([]float64, len(ops))
	for i, t := range ops {
		ms[i] = t.cpuMs
	}
	return ms
}
