package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	goruntime "runtime"
	"time"

	"repro/internal/check"
	"repro/internal/ctlplane"
	"repro/internal/eva"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/obs"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/videosim"
)

// sizes fixes how much work one round of each workload does.
type sizes struct {
	solveGrid                           [][2]int // videos × servers per instance
	solveReps                           int      // replicates of the grid in the reference set
	fleetVideos, fleetServers, fleetEps int
	wireVideos, wireServers, wireEps    int
	solveSetups                         int // set-up builds after each untraced solve
	ctlSetups                           int // set-up builds per untraced controller round
}

// fullSize is what the benchmark measures. The solve grid is the Fig. 7
// sweep: 10 videos on 5–9 servers, then 7–11 videos on 5 servers.
var fullSize = sizes{
	solveGrid:    [][2]int{{10, 5}, {10, 6}, {10, 7}, {10, 8}, {10, 9}, {7, 5}, {8, 5}, {9, 5}, {10, 5}, {11, 5}},
	solveReps:    4,
	fleetVideos:  512,
	fleetServers: 128,
	fleetEps:     50,
	wireVideos:   128,
	wireServers:  128,
	wireEps:      100,
	solveSetups:  3,
	ctlSetups:    5,
}

// tinySize runs the same code paths in a fraction of a second.
var tinySize = sizes{
	solveGrid:    [][2]int{{3, 2}, {4, 2}},
	solveReps:    1,
	fleetVideos:  24,
	fleetServers: 8,
	fleetEps:     12,
	wireVideos:   8,
	wireServers:  8,
	wireEps:      16,
	solveSetups:  2,
	ctlSetups:    2,
}

// env is what a round runs against: the tracer, the recorder (nil outside
// the traced run), the kernel sampler (nil in the traced run) and the
// sizes.
type env struct {
	tr   *tracer
	rec  *obs.Recorder
	smp  *sampler
	size sizes
}

// round is the outcome of one round: a set-up phase followed by a closed
// loop of timed operations.
type round struct {
	setups    []timing // every set-up build
	allocB    uint64   // heap bytes allocated by the round's operations
	ops       []timing
	benefit   []float64 // per successful op, Eq. 13 benefit shifted by Σw
	attempted int
	failed    int
	fp        []byte // canonical bytes of every decision the round installed
	errs      []string
	mvn       uint64 // posterior-sampling mean fallbacks (solve only)
}

// workload is a fixed pool of rounds. A run goes through the whole pool in
// the order its seed picks, as often as the time allows; every pass does the
// same work, so runs of any seed measure the same thing.
type workload struct {
	name string
	why  string
	pool int // distinct rounds; benefit and fingerprint cover one pass
	// run runs round k of the pool. seed is the run's seed, which may only
	// reorder work inside the round.
	run func(ctx context.Context, seed uint64, k int, e *env) round
}

var workloads = []workload{
	{"solve", "Algorithm 2 from scratch on a fixed Fig. 7 reference set in seeded order: bound by the BO layers (mat, gp, prefgp, acq)", 1, solveRound},
	{"fleet", "512x128 fixed-config controller epochs under faults, 2 shards, 8 fixed systems in seeded order: bound by exact placement (sched, check, shard)", 8, fleetRound},
	{"wire_churn", "128x128 controller epochs over the JSON control plane with diurnal churn, 8 fixed systems in seeded order: full resolves (sched, hungarian) plus ctlplane", 8, wireRound},
}

// order is the sequence in which a run of seed goes through the pool.
func (w workload) order(seed uint64) []int { return stats.NewRNG(seed).Perm(w.pool) }

// poolSeed is the seed of round k's system, faults and churn script. It
// does not depend on the run's seed.
func poolSeed(k int) uint64 { return mix(0xF1EE7, uint64(k)) }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix derives independent seeds for round r (and item k) of a run.
func mix(seed uint64, parts ...uint64) uint64 {
	h := seed ^ 0x9E3779B97F4A7C15
	for _, p := range parts {
		h ^= p + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h = stats.SplitMix64(h)
	}
	return h
}

var truth = objective.UniformPreference()

// shifted maps an Eq. 13 benefit U ∈ [−Σw, 0] onto Σ wᵢ(1 − |yᵢ − yᵢ*|),
// a positive, higher-is-better scale whose ratios are meaningful.
func shifted(u float64) float64 { return u + truth.WeightSum() }

func totalAlloc() uint64 {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// buildTimed builds a round's set-up reps times, each from a collected heap
// so that the garbage of earlier rounds does not land in the timing, and
// returns the last build with every build's timing, each with the kernel's
// speed just before and after it. discard releases the builds that are not
// kept. A traced round builds once, so that the recorder sees the one set-up
// that runs.
func buildTimed[T any](e *env, reps int, build func() (T, error), discard func(T)) (T, []timing, error) {
	if e.tr.on {
		reps = 1
	}
	var b T
	var times []timing
	var err error
	before := e.smp.near()
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(b)
		}
		goruntime.GC()
		t0, c0 := time.Now(), e.smp.cpu()
		b, err = build()
		t := timing{start: t0, end: time.Now(), cpuMs: float64(e.smp.cpu()-c0) / 1e6}
		after := e.smp.near()
		t.speedMs = (before + after) / 2
		times = append(times, t)
		if err != nil {
			break
		}
		before = after
	}
	return b, times, err
}

// solveInstance is one solve of the reference set.
type solveInstance struct {
	idx  int
	sys  *objective.System
	norm objective.Normalizer
	seed uint64
}

// solveSet builds the reference set — solveReps replicates of the grid,
// each instance with its own fixed system and optimizer seed — in the order
// the run seed picks. The set itself does not depend on the run seed: BO
// convergence makes solve times so instance-dependent that seeded sets
// differ by more than any bound the benchmark could hold (see NOTES.md).
func solveSet(seed uint64, size sizes) []solveInstance {
	var set []solveInstance
	for rep := 0; rep < size.solveReps; rep++ {
		for k, g := range size.solveGrid {
			s := mix(0x50173, uint64(rep), uint64(k))
			sys := exp.NewSystem(g[0], g[1], s)
			set = append(set, solveInstance{idx: len(set), sys: sys, norm: objective.NewNormalizer(sys), seed: s})
		}
	}
	order := stats.NewRNG(seed).Perm(len(set))
	out := make([]solveInstance, len(set))
	for i, j := range order {
		out[i] = set[j]
	}
	return out
}

// solveRound solves the whole reference set once, each instance from
// scratch under the strict checker, as pamo-bench -strict runs PaMO.
// Building the set takes a fraction of a millisecond, and a shared host's
// speed drifts over seconds, so after every solve the set is built again
// and timed: the set-up samples then span the run as the solves do.
func solveRound(ctx context.Context, seed uint64, _ int, e *env) round {
	var out round
	build := func() ([]solveInstance, error) { return solveSet(seed, e.size), nil }
	insts, setups, _ := buildTimed(e, 1, build, nil)
	out.setups = setups

	clock := newOpClock(e)
	decs := make([]*eva.Decision, len(insts))
	errs := make([]error, len(insts))
	for _, in := range insts {
		out.attempted++
		var dm pref.DecisionMaker = &pref.Oracle{Pref: truth, Rng: stats.NewRNG(in.seed + 0xD1)}
		if e.tr.on {
			dm = &countingDM{inner: dm, tr: e.tr}
		}
		a0 := totalAlloc()
		clock.begin()
		res, err := pamo.New(in.sys, dm, pamo.Options{UseEUBO: true, Seed: in.seed, Check: check.New(true, e.rec), Obs: e.rec}).RunContext(ctx)
		clock.end()
		out.allocB += totalAlloc() - a0
		if err != nil {
			errs[in.idx] = err
		} else {
			decs[in.idx] = &res.Best.Decision
			out.mvn += res.MVNFallbacks
		}
		if !e.tr.on {
			_, setups, _ := buildTimed(e, e.size.solveSetups, build, nil)
			out.setups = append(out.setups, setups...)
		}
	}
	out.ops = clock.ops

	// Scoring the true benefit is the benchmark's own work, so it runs
	// after the operations.
	fps := make([][]byte, len(insts))
	for _, in := range insts {
		d := decs[in.idx]
		if d == nil {
			out.failed++
			out.errs = append(out.errs, errs[in.idx].Error())
			fps[in.idx] = []byte("error\n")
			continue
		}
		out.benefit = append(out.benefit, shifted(truth.Benefit(in.norm.Normalize(eva.Evaluate(in.sys, *d)))))
		b, err := json.Marshal(struct {
			Configs []videosim.Config
			Assign  []int
			Offsets []float64
		}{d.Configs, d.Assign, d.Offsets})
		if err != nil {
			panic(err) // plain structs of finite numbers always marshal
		}
		fps[in.idx] = append(b, '\n')
	}
	out.fp = bytes.Join(fps, nil)
	return out
}

// fleetLoop is one faulted in-process controller and its epoch clock.
type fleetLoop struct {
	rt    *runtime.Controller
	clock *opClock
}

// fleetRound runs one faulted in-process controller run.
func fleetRound(ctx context.Context, _ uint64, k int, e *env) round {
	var out round
	s := poolSeed(k)
	sz := e.size
	loop, setups, err := buildTimed(e, sz.ctlSetups, func() (fleetLoop, error) {
		sys := exp.NewSystem(sz.fleetVideos, sz.fleetServers, s)
		sc := fault.Generate(fault.GenOptions{Epochs: sz.fleetEps, Servers: sys.N(), Cameras: sys.M(), Seed: s})
		inj, err := fault.NewInjector(sc, sys.N(), sys.M())
		if err != nil {
			return fleetLoop{}, err
		}
		clock := newOpClock(e)
		return fleetLoop{clock: clock, rt: &runtime.Controller{
			Sys:   sys,
			Sched: scheduler(videosim.Config{Resolution: 500, FPS: 5}, e.tr),
			Truth: truth,
			Norm:  objective.NewNormalizer(sys),
			Opt: runtime.Options{
				ReplanEvery: 1,
				Shards:      2,
				Check:       check.New(true, e.rec),
			},
			Health: &epochHealth{inner: inj, clock: clock, tr: e.tr},
			Obs:    e.rec,
		}}, nil
	}, nil)
	if err != nil {
		return aborted(sz.fleetEps, err)
	}

	a0 := totalAlloc()
	loop.clock.begin()
	trace, err := loop.rt.Run(ctx, sz.fleetEps)
	loop.clock.end()
	out.allocB = totalAlloc() - a0
	out.setups = setups
	out.fromTrace(trace, err, sz.fleetEps, loop.clock, &failures{})
	return out
}

// wireLoop is a runtime behind the in-memory control plane, with a hollow
// agent per server and a churn script posted through the wire client.
type wireLoop struct {
	ctl    *ctlplane.Controller
	driver *ctlplane.ChurnDriver
	agents *ctlplane.HollowFleet
}

// newWireLoop assembles the loop around rt and starts its agents. wrap, when
// not nil, may replace the runtime's seams and the client's transport
// before anything runs.
func newWireLoop(rt *runtime.Controller, script *fault.ChurnScript, seed uint64, rec *obs.Recorder, wrap func(*ctlplane.Controller, *ctlplane.Client)) (*wireLoop, error) {
	ctl := ctlplane.New(rt, ctlplane.Options{Obs: rec})
	cl := ctlplane.LoopbackClient(ctl, seed)
	if wrap != nil {
		wrap(ctl, cl)
	}
	driver := ctlplane.NewChurnDriver(cl, script, seed)
	ctl.OnEpoch(driver.OnEpoch)
	agents := ctlplane.NewHollowFleet(ctl, rt.Sys.N())
	if err := agents.StartAll(); err != nil {
		agents.Close()
		return nil, err
	}
	return &wireLoop{ctl: ctl, driver: driver, agents: agents}, nil
}

// run runs the loop for epochs. A churn-driver error is returned when the
// loop itself ended cleanly. The caller stops the agents.
func (w *wireLoop) run(ctx context.Context, epochs int) (*runtime.Trace, error) {
	trace, err := w.ctl.Run(ctx, epochs)
	if err == nil {
		err = w.driver.Err()
	}
	return trace, err
}

// wireRound runs one controller over the in-memory control plane with a
// hollow agent per server and churn posted through the wire client.
func wireRound(ctx context.Context, _ uint64, k int, e *env) round {
	var out round
	s := poolSeed(k)
	sz := e.size
	var clock *opClock
	var fail *failures
	loop, setups, err := buildTimed(e, sz.ctlSetups, func() (*wireLoop, error) {
		sys := exp.NewSystem(sz.wireVideos, sz.wireServers, s)
		// The daemon's runtime: fixed 1000p/10fps placement, default
		// replan period and shards, seeded retry jitter.
		rt := &runtime.Controller{
			Sys:   sys,
			Sched: scheduler(videosim.Config{Resolution: 1000, FPS: 10}, e.tr),
			Truth: truth,
			Norm:  objective.NewNormalizer(sys),
			Opt: runtime.Options{
				Check:         check.New(true, e.rec),
				BackoffJitter: true,
				BackoffSeed:   s,
			},
			Obs: e.rec,
		}
		names := make([]string, sys.M())
		for i, c := range sys.Clips {
			names[i] = c.Name
		}
		script := fault.GenerateChurn(fault.ChurnOptions{
			Epochs:       sz.wireEps,
			Initial:      names,
			Rate:         2,
			PeriodEpochs: sz.wireEps,
			MinStreams:   sys.M() * 3 / 4,
			MaxStreams:   sys.M() * 5 / 4,
			Seed:         s,
		})
		clock, fail = newOpClock(e), &failures{}
		return newWireLoop(rt, script, s, e.rec, func(ctl *ctlplane.Controller, cl *ctlplane.Client) {
			health := &epochHealth{inner: ctl, clock: clock, tr: e.tr}
			rt.Health = health
			rt.Eval = &timedEval{inner: ctl, tr: e.tr, fail: fail}
			cl.HTTP = &http.Client{Transport: &timedTransport{inner: cl.HTTP.Transport, tr: e.tr, epoch: &health.epoch, fail: fail}}
		})
	}, func(w *wireLoop) { w.agents.Close() })
	if err != nil {
		return aborted(sz.wireEps, err)
	}
	defer loop.agents.Close()

	a0 := totalAlloc()
	clock.begin()
	trace, err := loop.run(ctx, sz.wireEps)
	clock.end()
	out.allocB = totalAlloc() - a0
	out.setups = setups
	out.fromTrace(trace, err, sz.wireEps, clock, fail)
	return out
}

func scheduler(cfg videosim.Config, tr *tracer) runtime.Scheduler {
	fixed := &runtime.FixedScheduler{Cfg: cfg}
	if !tr.on {
		return fixed
	}
	return &timedSched{inner: fixed, tr: tr}
}

func aborted(ops int, err error) round {
	return round{attempted: ops, failed: ops, errs: []string{err.Error()}, fp: []byte("error\n")}
}

// fromTrace scores a controller run: an epoch fails when its replan failed
// after retries or an evaluation or wire call failed in it; if the run
// aborted, every epoch it did not finish fails too.
func (out *round) fromTrace(trace *runtime.Trace, err error, epochs int, clock *opClock, fail *failures) {
	out.attempted = epochs
	var reports []runtime.EpochReport
	if trace != nil {
		reports = trace.Reports
	}
	for _, rep := range reports {
		if rep.ReplanFailed || fail.has(rep.Epoch) {
			out.failed++
			continue
		}
		out.benefit = append(out.benefit, shifted(rep.Benefit))
	}
	out.ops = clock.ops
	if err != nil {
		out.failed += epochs - len(reports)
		out.errs = append(out.errs, err.Error())
		if len(out.ops) > len(reports) {
			out.ops = out.ops[:len(reports)]
		}
	}
	if len(out.errs) > 0 && out.failed == 0 {
		out.failed = 1 // a wire error with no epoch to pin it on
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(reports); err != nil {
		panic(err) // epoch reports hold finite numbers and slices only
	}
	fmt.Fprintf(&buf, "err=%v\n", err)
	out.fp = buf.Bytes()
}
