package sched

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

// FuzzScheduleMaskedVsSchedule differentially fuzzes Schedule's fault path
// against its unmasked path: with every server healthy, an all-true mask
// must give *exactly* the nil-mask plan — same feasibility verdict and a
// byte-identical plan (groups, server maps, communication latency). The
// masked path compacts to the survivor subset and remaps indices back to
// physical ones; with an all-true mask that remap must be the identity, and
// any drift here means degraded-mode replans silently disagree with normal
// operation.
func FuzzScheduleMaskedVsSchedule(f *testing.F) {
	f.Add(uint64(1), 4, 3)
	f.Add(uint64(42), 8, 5)
	f.Add(uint64(7), 1, 1)
	f.Add(uint64(1234), 6, 2)
	f.Fuzz(func(t *testing.T, seed uint64, m, n int) {
		m = 1 + abs(m)%8
		n = 1 + abs(n)%5
		fps := []int64{5, 6, 10, 15, 25, 30}
		rng := seed
		next := func(k int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(k))
		}
		streams := make([]Stream, m)
		for i := range streams {
			p := RatFromFPS(fps[next(len(fps))])
			streams[i] = Stream{
				Video:  i,
				Period: p,
				Proc:   p.Float() * (0.05 + 0.9*float64(next(100))/100),
				Bits:   1e6 * (1 + float64(next(20))),
			}
		}
		servers := make([]cluster.Server, n)
		for j := range servers {
			servers[j] = cluster.Server{Name: fmt.Sprintf("s%d", j), Uplink: 10e6 * float64(1+next(5))}
		}
		healthy := make([]bool, n)
		for j := range healthy {
			healthy[j] = true
		}

		plain, errPlain := Schedule(streams, servers, nil)
		masked, errMasked := Schedule(streams, servers, healthy)

		if (errPlain == nil) != (errMasked == nil) {
			t.Fatalf("feasibility diverged: nil mask err=%v, all-true mask err=%v", errPlain, errMasked)
		}
		if errPlain != nil {
			if !errors.Is(errPlain, ErrInfeasible) || !errors.Is(errMasked, ErrInfeasible) {
				t.Fatalf("non-infeasible errors: %v / %v", errPlain, errMasked)
			}
			return
		}
		if !reflect.DeepEqual(plain.Groups, masked.Groups) {
			t.Fatalf("groups diverged:\n%v\n%v", plain.Groups, masked.Groups)
		}
		if !reflect.DeepEqual(plain.GroupServer, masked.GroupServer) {
			t.Fatalf("group→server maps diverged:\n%v\n%v", plain.GroupServer, masked.GroupServer)
		}
		if !reflect.DeepEqual(plain.StreamServer, masked.StreamServer) {
			t.Fatalf("stream→server maps diverged:\n%v\n%v", plain.StreamServer, masked.StreamServer)
		}
		if plain.CommLatency != masked.CommLatency {
			t.Fatalf("comm latency diverged: %v vs %v", plain.CommLatency, masked.CommLatency)
		}
	})
}
