package sched

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func timelinePlan(t *testing.T) ([]Stream, Plan) {
	t.Helper()
	streams := []Stream{
		{Video: 0, Period: RatFromFPS(5), Proc: 0.05, Bits: 1e5},
		{Video: 1, Period: RatFromFPS(10), Proc: 0.03, Bits: 1e5},
		{Video: 2, Period: RatFromFPS(10), Proc: 0.04, Bits: 1e5},
		{Video: 3, Period: RatFromFPS(30), Proc: 0.02, Bits: 1e5},
	}
	srvs := []cluster.Server{{Uplink: 1e7}, {Uplink: 2e7}, {Uplink: 3e7}}
	plan, err := Schedule(streams, srvs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return streams, plan
}

func TestTimelinesCoverAllStreams(t *testing.T) {
	streams, plan := timelinePlan(t)
	tls := Timelines(t, plan, streams)
	covered := map[int]bool{}
	for _, tl := range tls {
		if tl.Cycle <= 0 {
			t.Fatalf("cycle %v", tl.Cycle)
		}
		for _, s := range tl.Slots {
			covered[s.Stream] = true
			if s.End <= s.Start {
				t.Fatalf("empty slot %+v", s)
			}
		}
	}
	for i := range streams {
		if !covered[i] {
			t.Fatalf("stream %d missing from timelines", i)
		}
	}
}

// Timelines is a tiny helper so tests read naturally.
func Timelines(t *testing.T, p Plan, streams []Stream) []Timeline {
	t.Helper()
	return p.Timelines(streams)
}

func TestTimelinesNoOverlap(t *testing.T) {
	streams, plan := timelinePlan(t)
	for _, tl := range plan.Timelines(streams) {
		if ov := tl.Overlap(); ov != nil {
			t.Fatalf("server %d slots overlap: %+v", tl.Server, *ov)
		}
	}
}

// Property: every feasible Algorithm 1 plan yields overlap-free cyclic
// timelines — Theorem 1 restated on the explicit interval structure.
func TestTimelineTheorem1Property(t *testing.T) {
	fpsChoices := []int64{5, 6, 10, 15, 25, 30}
	f := func(seed uint64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		m := 2 + next(6)
		streams := make([]Stream, m)
		for i := range streams {
			p := RatFromFPS(fpsChoices[next(len(fpsChoices))])
			streams[i] = Stream{Video: i, Period: p, Proc: p.Float() * (0.05 + 0.4*float64(next(100))/100)}
		}
		srvs := make([]cluster.Server, 4)
		for j := range srvs {
			srvs[j] = cluster.Server{Uplink: 1e7}
		}
		plan, err := Schedule(streams, srvs, nil)
		if err != nil {
			return true
		}
		for _, tl := range plan.Timelines(streams) {
			if tl.Overlap() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapDetectsConflicts(t *testing.T) {
	tl := Timeline{Cycle: 1, Slots: []Slot{
		{Stream: 0, Start: 0, End: 0.5},
		{Stream: 1, Start: 0.4, End: 0.6},
	}}
	if tl.Overlap() == nil {
		t.Fatal("overlap undetected")
	}
}

func TestRenderTimeline(t *testing.T) {
	streams, plan := timelinePlan(t)
	tls := plan.Timelines(streams)
	out := tls[0].Render(streams, 40)
	if !strings.Contains(out, "#") || !strings.Contains(out, "|") {
		t.Fatalf("render missing marks:\n%s", out)
	}
	if !strings.Contains(out, "cycle") {
		t.Fatalf("render missing header:\n%s", out)
	}
	// Zero width falls back to the default.
	if w := tls[0].Render(streams, 0); len(w) == 0 {
		t.Fatal("empty render")
	}
}

func TestRatLCM(t *testing.T) {
	got := ratLCM(RatFromFPS(10), RatFromFPS(15))
	// lcm(1/10, 1/15) = 1/gcd(10,15) = 1/5.
	if got.Cmp(Rat(1, 5)) != 0 {
		t.Fatalf("lcm = %v", got)
	}
}
