// Command pamobench is the repository's benchmark: three closed-loop
// workloads driven through the public entry points of pamo, runtime and
// ctlplane, each checked by the strict exact-feasibility audit.
//
//	go run . --workload solve|fleet|wire_churn --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics without
// tracing, the per-layer metrics with it. See NOTES.md.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// commit is stamped at build time by run.sh.
var commit = "unknown"

func main() {
	workload := flag.String("workload", "", "solve, fleet or wire_churn")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "how long one run measures (BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	defects := flag.Bool("defects", false, "reproduce the two known PaMO-in-the-loop defects (see NOTES.md) and exit")
	flag.Parse()

	if *defects {
		if err := reproDefects(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*workload)
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: pamobench --workload solve|fleet|wire_churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// One P: the program then runs on one core at a time, so an op's CPU
	// time is its latency on a core of its own, and a shared host's other
	// tenants slow the run without moving what it reports. Decisions are
	// the same at any GOMAXPROCS (the smoke test checks 1 and 2).
	goruntime.GOMAXPROCS(1)
	hostHeader(os.Stdout, w, *seed, *trace == 1)

	ctx := context.Background()
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res = traced(ctx, os.Stdout, w, *seed, budget, fullSize, spanFile(w, *seed))
	} else {
		res = untraced(ctx, os.Stdout, w, *seed, budget, fullSize)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func hostHeader(out io.Writer, w workload, seed uint64, traced bool) {
	host, _ := os.Hostname()
	fmt.Fprintf(out, "pamobench workload=%s seed=%d traced=%v\n", w.name, seed, traced)
	fmt.Fprintf(out, "host=%s nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		host, goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), commit)
	fmt.Fprintf(out, "why: %s\n", w.why)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRounds runs whole passes over the workload's pool, in the order the
// seed picks, until another pass would end more than half a pass past the
// budget. It returns the rounds in pool order, pass after pass.
func runRounds(ctx context.Context, w workload, seed uint64, budget time.Duration, e *env) []round {
	start := time.Now()
	var rounds []round
	for {
		t0 := time.Now()
		pass := make([]round, w.pool)
		for _, k := range w.order(seed) {
			pass[k] = w.run(ctx, seed, k, e)
		}
		rounds = append(rounds, pass...)
		if time.Since(start)+time.Since(t0)/2 >= budget {
			return rounds
		}
	}
}

// tailQ is the highest quantile with at least ten of a round's operations
// beyond it.
func tailQ(w workload, size sizes) float64 {
	n := 0
	switch w.name {
	case "solve":
		n = len(size.solveGrid) * size.solveReps
	case "fleet":
		n = size.fleetEps
	default:
		n = size.wireEps
	}
	return math.Max(0.5, 1-10/float64(n))
}

// untraced measures the end-to-end metrics. Every timing is CPU time
// scaled to the reference kernel's nominal speed (calib.go); unscaled CPU
// and wall-clock figures are printed beside them but not reported.
// Throughput (ops per CPU second) and the tail are taken per round and
// their median reported, so one round slowed by a neighbour on a shared
// host does not move them.
func untraced(ctx context.Context, out io.Writer, w workload, seed uint64, budget time.Duration, size sizes) result {
	smp := startSampler(budget)
	e := &env{tr: newTracer(false), smp: smp, size: size}
	rounds := runRounds(ctx, w, seed, budget, e)
	smp.close()
	q := tailQ(w, size)
	var ops, attempted, failed int
	var allocB float64
	var opMs, cpuMs, wallMs, rates, tails, setups, benefit []float64
	var errs []string
	h := sha256.New()
	for i, r := range rounds {
		ms := make([]float64, len(r.ops))
		for j, t := range r.ops {
			ms[j] = smp.scaled(t)
			cpuMs = append(cpuMs, t.cpuMs)
			wallMs = append(wallMs, float64(t.end.Sub(t.start))/1e6)
		}
		for _, t := range r.setups {
			setups = append(setups, smp.scaled(t)/1e3)
		}
		ops += len(ms)
		attempted += r.attempted
		failed += r.failed
		allocB += float64(r.allocB)
		opMs = append(opMs, ms...)
		rates = append(rates, 1e3*float64(len(ms))/sum(ms))
		tails = append(tails, quantile(ms, q))
		errs = append(errs, r.errs...)
		if i < w.pool {
			benefit = append(benefit, r.benefit...)
			h.Write(r.fp)
		}
	}
	m := map[string]metric{
		"ops_per_cpu_s":   {quantile(rates, 0.5), "1/s"},
		"op_cpu_p50_ms":   {quantile(opMs, 0.5), "ms"},
		"op_cpu_tail_ms":  {quantile(tails, 0.5), "ms"},
		"benefit_mean":    {mean(benefit), "benefit"},
		"success_frac":    {1 - float64(failed)/float64(attempted), "ratio"},
		"alloc_mb_per_op": {allocB / 1e6 / float64(ops), "MB"},
		"rss_peak_mb":     {vmHWM() - calResidentMB, "MB"},
		"setup_s":         {quantile(setups, 0.5), "s"},
	}
	fmt.Fprintf(out, "rounds=%d (%d passes) ops=%d attempted=%d failed=%d\n", len(rounds), len(rounds)/w.pool, ops, attempted, failed)
	fmt.Fprintf(out, "ops_per_cpu_s and op_cpu_tail_ms are medians over %d rounds; the tail is each round's p%s (%d ops beyond it)\n",
		len(rounds), strconv.FormatFloat(100*q, 'f', -1, 64), int(math.Round(float64(len(rounds[0].ops))*(1-q))))
	fmt.Fprintf(out, "unscaled, not reported: op p50 %.4g ms CPU, %.4g ms wall; ops per second of op time %.4g CPU, %.4g wall\n",
		quantile(cpuMs, 0.5), quantile(wallMs, 0.5), 1e3*float64(len(cpuMs))/sum(cpuMs), 1e3*float64(len(wallMs))/sum(wallMs))
	fmt.Fprintf(out, "reference kernel: p10/p50/p90 %.4g / %.4g / %.4g ms over %d runs (nominal %g ms)\n",
		quantile(smp.ms, 0.1), quantile(smp.ms, 0.5), quantile(smp.ms, 0.9), len(smp.ms), calNominalMs)
	fmt.Fprintf(out, "fingerprint=%s benefit_mean=%.12g (first pass, %d rounds, %d decisions scored)\n",
		hex.EncodeToString(h.Sum(nil))[:16], mean(benefit), w.pool, len(benefit))
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(out, "... %d more errors\n", len(errs)-5)
			break
		}
		fmt.Fprintf(out, "error: %s\n", err)
	}
	return report(out, m, attempted, failed)
}

// report prints the metrics and builds the result line. A value that is
// not finite cannot be reported and marks the run incorrect.
func report(out io.Writer, m map[string]metric, attempted, failed int) result {
	correct := failed == 0
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(out, "metric %s is not finite\n", k)
			m[k] = metric{0, v.Unit}
			correct = false
		}
	}
	printMetrics(out, m)
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// vmHWM reads the process's peak resident set size in MB.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// spanFile is where the traced run writes its spans, relative to the
// checkout root the benchmark runs from.
func spanFile(w workload, seed uint64) string {
	return filepath.Join(".bench_build", "pamobench", fmt.Sprintf("spans_%s_seed%d.jsonl", w.name, seed))
}
