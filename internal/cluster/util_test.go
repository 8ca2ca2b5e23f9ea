package cluster

import (
	"context"
	"math/rand/v2"
)

func newRng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xABCDEF))
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcmInt(a, b int) int { return a / gcdInt(a, b) * b }

// simulate runs the FIFO simulator on a fresh arena without telemetry, so
// the result owns its buffers.
func simulate(streams []StreamSpec, srv Server, horizon float64) Result {
	return NewArena().SimulateServer(context.Background(), streams, srv, horizon, nil, 0)
}
