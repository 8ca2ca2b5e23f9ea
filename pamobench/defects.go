package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/check"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/objective"
	"repro/internal/pamo"
	"repro/internal/pref"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// reproDefects shows the two defects that keep PaMO out of the controller
// workloads (NOTES.md): the audit pamo-sched -strict runs on a finished
// solve, applied to the solve workload's reference set; then PaMO as the
// controller's scheduler under the strict checker, without and with stream
// churn, in-process and over the wire.
func reproDefects(out io.Writer) error {
	ctx := context.Background()
	fmt.Fprintln(out, "1. pamo-sched -strict's audit of each finished solve, on the solve reference set")
	bad := 0
	insts := solveSet(1, fullSize)
	for _, in := range insts {
		dm := &pref.Oracle{Pref: truth, Rng: stats.NewRNG(in.seed + 0xD1)}
		chk := check.New(true, nil)
		res, err := pamo.New(in.sys, dm, pamo.Options{UseEUBO: true, Seed: in.seed, Check: chk}).RunContext(ctx)
		if err == nil {
			err = chk.VerifyDecision(res.Best.Decision, in.sys.N())
		}
		if err != nil {
			bad++
			fmt.Fprintf(out, "   instance %d (%d videos x %d servers): %v\n", in.idx, in.sys.M(), in.sys.N(), err)
		}
	}
	fmt.Fprintf(out, "   %d of %d solves fail the audit\n", bad, len(insts))

	const videos, servers, epochs = 8, 4, 48
	fmt.Fprintf(out, "2. PaMO as the controller's scheduler, strict checker, %d videos x %d servers, %d epochs\n", videos, servers, epochs)
	for _, mode := range []string{"no churn", "churn", "churn+wire"} {
		for seed := uint64(1); seed <= 8; seed++ {
			sys := exp.NewSystem(videos, servers, seed)
			rt := &runtime.Controller{
				Sys: sys,
				Sched: &runtime.PaMOScheduler{
					DM:  &pref.Oracle{Pref: truth, Rng: stats.NewRNG(seed)},
					Opt: pamo.Options{UseEUBO: true, Seed: seed},
				},
				Truth: truth,
				Norm:  objective.NewNormalizer(sys),
				Opt:   runtime.Options{Check: check.New(true, nil)},
			}
			names := make([]string, sys.M())
			for i, c := range sys.Clips {
				names[i] = c.Name
			}
			script := fault.GenerateChurn(fault.ChurnOptions{Epochs: epochs, Initial: names, Rate: 1, Seed: seed})
			var trace *runtime.Trace
			var err error
			switch mode {
			case "no churn":
				trace, err = rt.Run(ctx, epochs)
			case "churn":
				rt.Ops = runtime.NewChurnFeed(script, seed)
				trace, err = rt.Run(ctx, epochs)
			default:
				trace, err = runWire(ctx, rt, script, seed, epochs)
			}
			done := 0
			if trace != nil {
				done = len(trace.Reports)
			}
			verdict := "completed"
			if err != nil {
				verdict = "aborted: " + err.Error()
			}
			fmt.Fprintf(out, "   %-10s seed %d: %2d/%d epochs, %s\n", mode, seed, done, epochs, verdict)
		}
	}
	return nil
}

// runWire runs rt over the in-memory control plane with a hollow agent per
// server, posting the churn script through the wire client.
func runWire(ctx context.Context, rt *runtime.Controller, script *fault.ChurnScript, seed uint64, epochs int) (*runtime.Trace, error) {
	loop, err := newWireLoop(rt, script, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	defer loop.agents.Close()
	return loop.run(ctx, epochs)
}
