//go:build !race

package cluster

import (
	"context"
	"testing"
)

// TestArenaSimulateZeroAlloc pins the steady-state allocation budget of the
// arena simulator: after the first epoch sizes the buffers, replaying the
// same workload must not touch the heap. (Skipped under -race, which
// instruments allocation.)
func TestArenaSimulateZeroAlloc(t *testing.T) {
	streams, srv := arenaWorkload(16)
	a := NewArena()
	a.SimulateServer(context.Background(), streams, srv, 5, nil, 0) // size the buffers
	if n := testing.AllocsPerRun(20, func() { a.SimulateServer(context.Background(), streams, srv, 5, nil, 0) }); n != 0 {
		t.Fatalf("warm Arena.SimulateServer allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { ZeroJitterOffsets(streams, srv) }); n != 0 {
		t.Fatalf("ZeroJitterOffsets allocates %v times per run, want 0", n)
	}
}
