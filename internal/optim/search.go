package optim

import "math"

// GridSearchMin evaluates f at every listed point and returns the index of
// the smallest value. Ties resolve to the earliest index.
func GridSearchMin(f func(int) float64, n int) (best int, fbest float64) {
	best, fbest = -1, math.Inf(1)
	for i := 0; i < n; i++ {
		if v := f(i); v < fbest {
			best, fbest = i, v
		}
	}
	return best, fbest
}
