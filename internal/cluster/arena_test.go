package cluster

import (
	"context"
	"math"
	"reflect"
	"testing"
)

func arenaWorkload(n int) ([]StreamSpec, Server) {
	streams := make([]StreamSpec, n)
	periods := []float64{1.0 / 30, 1.0 / 15, 1.0 / 10, 1.0 / 5}
	for i := range streams {
		streams[i] = StreamSpec{
			Period: periods[i%len(periods)],
			Proc:   0.001 + 0.0004*float64(i%7),
			Bits:   1e5 * float64(1+i%9),
			Offset: 0.0003 * float64(i%11),
		}
	}
	return streams, Server{Uplink: 40e6}
}

// TestArenaReuseMatchesFresh pins buffer reuse — the only thing a reused
// arena can get wrong — against a fresh arena per call: one arena runs a
// sequence of growing, shrinking and empty stream sets at several speed
// classes (including the zero-value default), and every result must be
// deeply equal to the same simulation on a never-used arena.
func TestArenaReuseMatchesFresh(t *testing.T) {
	a := NewArena()
	sizes := []int{12, 12, 20, 5, 0, 16, 1, 0, 24}
	uplinks := []float64{40e6, 0, 15e6}
	for ci, n := range sizes {
		for si, speed := range []float64{0, 1, 0.5, 2} {
			streams, _ := arenaWorkload(n)
			srv := Server{Uplink: uplinks[(ci+si)%len(uplinks)], SpeedFactor: speed}
			horizon := 1 + 0.5*float64(ci%4)
			got := a.SimulateServer(context.Background(), streams, srv, horizon, nil, 0)
			want := NewArena().SimulateServer(context.Background(), streams, srv, horizon, nil, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (n=%d, speed %g): reused arena diverged from a fresh one:\n%+v\n%+v",
					ci, n, speed, got.PerStream, want.PerStream)
			}
		}
	}
}

// TestZeroJitterOffsetsSlotTrain pins the offsets' contract: they are written
// into the caller's slice, the slot train uses effective service times
// p/speed, and the result simulates without jitter on both a transmitting
// and a zero-uplink server.
func TestZeroJitterOffsetsSlotTrain(t *testing.T) {
	for _, srv := range []Server{{Uplink: 25e6}, {Uplink: 0}, {Uplink: 25e6, SpeedFactor: 2}} {
		streams, _ := arenaWorkload(3)
		for i := range streams {
			streams[i].Period = 0.2
			streams[i].Offset = -1
		}
		ZeroJitterOffsets(streams, srv)
		maxTx := 0.0
		if srv.Uplink > 0 {
			for _, s := range streams {
				maxTx = math.Max(maxTx, s.Bits/srv.Uplink)
			}
		}
		acc := 0.0
		for i, s := range streams {
			tx := 0.0
			if srv.Uplink > 0 {
				tx = s.Bits / srv.Uplink
			}
			if want := maxTx + acc - tx; s.Offset != want {
				t.Fatalf("server %+v: offset[%d] = %g, want %g", srv, i, s.Offset, want)
			}
			acc += s.Proc / srv.Speed()
		}
		if res := simulate(streams, srv, 5); res.MaxJitter > JitterEps {
			t.Fatalf("server %+v: in-place offsets jitter %g", srv, res.MaxJitter)
		}
	}
}

// TestArenaResultAliasing documents the reuse contract: results from the
// same arena alias its buffers, so a second call overwrites the first's
// view. This is intentional; retainers must copy.
func TestArenaResultAliasing(t *testing.T) {
	a := NewArena()
	streams, srv := arenaWorkload(4)
	r1 := a.SimulateServer(context.Background(), streams, srv, 2, nil, 0)
	first := math.NaN()
	if len(r1.Frames) > 0 {
		first = r1.Frames[0].Finish
	}
	r2 := a.SimulateServer(context.Background(), streams, srv, 2, nil, 0)
	if len(r1.Frames) > 0 && len(r2.Frames) > 0 && &r1.Frames[0] != &r2.Frames[0] {
		t.Fatal("expected results from one arena to alias the same buffers")
	}
	if len(r2.Frames) > 0 && r2.Frames[0].Finish != first {
		t.Fatalf("deterministic rerun changed results: %g vs %g", r2.Frames[0].Finish, first)
	}
}
