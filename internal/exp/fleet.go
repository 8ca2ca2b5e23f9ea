package exp

import (
	"context"
	"math"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/stats"
)

// FleetConfig sizes the fleet-scale control-plane benchmark: a cluster two
// orders of magnitude beyond the paper's testbed (256 streams × 32 servers
// by default) driven through repeated replan-and-simulate epochs, the shape
// of the fault-tolerant runtime's steady state. Procs and frame sizes drift
// every epoch and a server flaps periodically, so every epoch needs a real
// replan, not a cache hit.
type FleetConfig struct {
	Streams    int     // pre-split stream count (default 256)
	Servers    int     // default 32
	Epochs     int     // replan+simulate epochs per run (default 8)
	Horizon    float64 // DES horizon per epoch, seconds (default 2)
	FaultEvery int     // every k-th epoch one server is down (default 4, <0 disables)
	Seed       uint64
	// Cold forces the pre-optimization path on every epoch: a full
	// Algorithm 1 solve from scratch (sort, priorities, exact-rational
	// grouping, fresh Hungarian matrices) plus freshly allocated simulation
	// buffers. The default warm path reuses the previous epoch's grouping
	// through sched.Replanner and simulates through per-server
	// cluster.Arenas, re-solving only the group→server mapping.
	Cold bool
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Streams == 0 {
		c.Streams = 256
	}
	if c.Servers == 0 {
		c.Servers = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 8
	}
	if c.Horizon == 0 {
		c.Horizon = 2
	}
	if c.FaultEvery == 0 {
		c.FaultEvery = 4
	}
	if c.Seed == 0 {
		c.Seed = 2024
	}
	return c
}

// FleetReport aggregates one fleet run. The latency/comm numbers double as
// a determinism fingerprint: cold and warm paths must produce identical
// plans per epoch whenever the incremental solve is exact, and the
// benchmark's test asserts the report is reproducible run-to-run.
type FleetReport struct {
	Streams, Servers, Epochs int
	Frames                   int
	MeanLatencyS             float64
	CommLatencyS             float64 // summed over epochs
	MaxJitterS               float64
	FullReplans              int
	IncrementalReplans       int
}

// fleetWorkload builds the deterministic base workload: periods drawn from
// an harmonic fps set (every period a multiple of 1/30 s, so Algorithm 1's
// period-multiple grouping condition has room), per-frame costs sized for
// ~70% aggregate group utilization, and heterogeneous uplinks.
func fleetWorkload(cfg FleetConfig) ([]sched.Stream, []cluster.Server) {
	rng := stats.NewRNG(cfg.Seed)
	fps := []int64{30, 15, 10, 6, 5}
	streams := make([]sched.Stream, cfg.Streams)
	for i := range streams {
		p := sched.RatFromFPS(fps[rng.IntN(len(fps))])
		streams[i] = sched.Stream{
			Video:  i,
			Period: p,
			// 2–16% of the fastest period: dense enough that grouping is
			// non-trivial, sparse enough that a feasible packing exists.
			Proc: (1.0 / 30) * (0.02 + 0.14*rng.Float64()),
			Bits: 1e5 * (1 + 9*rng.Float64()),
		}
	}
	servers := make([]cluster.Server, cfg.Servers)
	for j := range servers {
		servers[j] = cluster.Server{Uplink: 20e6 * float64(1+rng.IntN(5))}
	}
	return streams, servers
}

// fleetDrift writes the epoch's drifted per-frame costs into dst (same
// base workload, procs and bits modulated per stream per epoch). The
// modulation is bounded so every epoch stays feasible.
func fleetDrift(dst, base []sched.Stream, epoch int) {
	copy(dst, base)
	for i := range dst {
		ph := float64(epoch) + float64(i)*0.618
		dst[i].Proc = base[i].Proc * (1 + fleetProcAmp*math.Sin(ph))
		dst[i].Bits = base[i].Bits * (1 + 0.25*math.Sin(ph*1.7))
	}
}

// fleetProcAmp is the relative amplitude of the per-epoch processing-time
// drift; fleetProcMargin is the worst-case headroom the planner budgets for
// it. Planning with Proc·(1+amp) upper-bounds every drifted epoch, so the
// admission arithmetic (and with it a previously adopted grouping) stays
// valid under drift — the WCET discipline real admission controllers use.
// Theorem 1's offsets computed for the budgeted procs stay zero-jitter when
// the actual procs run shorter: each frame still finishes before the next
// planned slot opens.
const (
	fleetProcAmp    = 0.06
	fleetProcMargin = 1 + fleetProcAmp
)

// fleetPlanStreams writes the epoch's planning view into dst: worst-case
// (margin-budgeted) processing times, the epoch's actual frame sizes. Bits
// stay exact because Theorem 1's transmission staggering must match what the
// network will really carry; procs are budgeted because admission must
// survive drift.
func fleetPlanStreams(dst, base, actual []sched.Stream) {
	copy(dst, base)
	for i := range dst {
		dst[i].Proc = base[i].Proc * fleetProcMargin
		dst[i].Bits = actual[i].Bits
	}
}

// fleetMask returns the epoch's server liveness mask (nil = all healthy):
// on fault epochs one rotating server is down, forcing a replan onto the
// survivors exactly as the fault-tolerant runtime would.
func fleetMask(cfg FleetConfig, epoch int) []bool {
	if cfg.FaultEvery <= 0 || epoch == 0 || epoch%cfg.FaultEvery != 0 {
		return nil
	}
	mask := make([]bool, cfg.Servers)
	for j := range mask {
		mask[j] = true
	}
	mask[(epoch/cfg.FaultEvery-1)%cfg.Servers] = false
	return mask
}

// Fleet runs the fleet-scale benchmark loop once and returns the aggregate
// report. Each epoch: drift the workload, plan against the margin-budgeted
// view (full Algorithm 1 when Cold or when the incremental path is
// inapplicable, otherwise a grouping-reusing incremental solve), apply
// Theorem 1 offsets, and verify the plan empirically with the discrete-event
// simulator running the epoch's actual drifted costs.
func Fleet(cfg FleetConfig) FleetReport {
	cfg = cfg.withDefaults()
	base, servers := fleetWorkload(cfg)
	rep := FleetReport{Streams: cfg.Streams, Servers: cfg.Servers, Epochs: cfg.Epochs}

	streams := make([]sched.Stream, len(base))
	planning := make([]sched.Stream, len(base))
	var latSum float64
	if cfg.Cold {
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			fleetDrift(streams, base, epoch)
			fleetPlanStreams(planning, base, streams)
			mask := fleetMask(cfg, epoch)
			split := sched.SplitHighRate(planning)
			plan, err := sched.Schedule(split, servers, mask)
			if err != nil {
				panic("exp: infeasible fleet workload: " + err.Error())
			}
			rep.FullReplans++
			rep.CommLatencyS += plan.CommLatency
			specs, assign := plan.ToClusterStreams(split, servers)
			for k := range specs {
				specs[k].Proc = streams[split[k].Video].Proc
			}
			results := cluster.SimulateCluster(specs, servers, assign, cfg.Horizon)
			for _, r := range results {
				for _, f := range r.Frames {
					latSum += f.Latency()
				}
				rep.Frames += len(r.Frames)
				rep.MaxJitterS = math.Max(rep.MaxJitterS, r.MaxJitter)
			}
		}
	} else {
		rp := sched.NewReplanner()
		arenas := make([]*cluster.Arena, len(servers))
		specs := make([]cluster.StreamSpec, 0, len(base))
		srvSpecs := make([][]cluster.StreamSpec, len(servers))
		for j := range arenas {
			arenas[j] = cluster.NewArena()
		}
		var split []sched.Stream
		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			fleetDrift(streams, base, epoch)
			fleetPlanStreams(planning, base, streams)
			mask := fleetMask(cfg, epoch)
			// The planning view's periods and budgeted procs are
			// epoch-invariant, so the split structure is too (splitting
			// depends only on Proc/Period): compute it once and refresh the
			// per-epoch frame sizes through the sub-streams' parent index.
			if split == nil {
				split = sched.SplitHighRate(planning)
			} else {
				for k := range split {
					split[k].Bits = planning[split[k].Video].Bits
				}
			}
			plan, incremental, err := rp.Replan(context.Background(), split, servers, mask)
			if err != nil {
				panic("exp: infeasible fleet workload: " + err.Error())
			}
			if incremental {
				rep.IncrementalReplans++
			} else {
				rep.FullReplans++
			}
			rep.CommLatencyS += plan.CommLatency
			// Theorem 1 offsets plus per-server spec partitions, without
			// the name-formatting allocations of ToClusterStreams. Offsets
			// are computed from the budgeted procs (matching the cold path),
			// then the actual drifted procs are swapped in for simulation.
			specs = specs[:0]
			for _, s := range split {
				specs = append(specs, cluster.StreamSpec{
					Period: s.Period.Float(), Proc: s.Proc, Bits: s.Bits,
				})
			}
			for j := range srvSpecs {
				srvSpecs[j] = srvSpecs[j][:0]
			}
			for g, members := range plan.Groups {
				if len(members) == 0 {
					continue
				}
				srv := plan.GroupServer[g]
				at := len(srvSpecs[srv])
				for _, si := range members {
					srvSpecs[srv] = append(srvSpecs[srv], specs[si])
				}
				part := srvSpecs[srv][at:]
				cluster.ZeroJitterOffsets(part, servers[srv])
				for gi, si := range members {
					part[gi].Proc = streams[split[si].Video].Proc
				}
			}
			for j := range servers {
				res := arenas[j].SimulateServer(context.Background(), srvSpecs[j], servers[j], cfg.Horizon, nil, j)
				for _, f := range res.Frames {
					latSum += f.Latency()
				}
				rep.Frames += len(res.Frames)
				rep.MaxJitterS = math.Max(rep.MaxJitterS, res.MaxJitter)
			}
		}
	}
	if rep.Frames > 0 {
		rep.MeanLatencyS = latSum / float64(rep.Frames)
	}
	return rep
}
