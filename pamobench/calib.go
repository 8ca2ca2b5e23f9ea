package main

import (
	"math/big"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A shared host's speed drifts: on a 2-vCPU VM the CPU time of one fixed
// piece of work moved by a factor of two within a minute, as other tenants
// took the sibling hyperthreads and the caches, and the CPU time of the
// same epochs spread 25% over runs. So while the untraced run measures, a
// sampler goroutine runs a fixed reference kernel every calEvery and every
// timing is scaled to the kernel's nominal speed by the kernel runs around
// it. The kernel is the benchmark's own frozen code, so a change to the
// program moves the scaled timings and a change of host speed does not.
// It allocates nothing, so it never assists the program's garbage
// collector and its speed does not depend on how much the program
// allocates. Its parts follow the kinds of work the workloads do: a dense
// float loop (mat, gp), random reads over a 4 MB cycle and a 1 MB stream
// (the collector's marking and sweeping, cluster's event queues),
// multi-word integer arithmetic (sched's math/big) and sorting (hungarian,
// check).

// calNominalMs is what one kernel run is scaled to: a typical CPU time of
// the kernel on a 2-vCPU 2.1 GHz Xeon VM, whose runs took 1.1 to 1.8 ms, so
// scaled timings read as CPU milliseconds there.
const calNominalMs = 1.5

const (
	calEvery  = 25 * time.Millisecond  // how often the sampler runs the kernel
	calMargin = 250 * time.Millisecond // kernel runs this far around a timing set its speed
	calN      = 40                     // matrix order
	calWords  = 1 << 20                // random-read array (4 MB)
	calReads  = 1600
	calSort   = 1500
	calStream = 1 << 17 // streamed words (1 MB)
)

var (
	calA, calB, calC [calN * calN]float64
	calNext          = calCycle()
	calKeys, calWork = calSortKeys()
	calX, calY, calZ = calInts()
	calBuf           = offHeap[uint64](calStream)
	calSink          uint64
)

// offHeap maps n zeroed words outside the Go heap. The kernel's arrays live
// there so that they do not raise the collector's heap goal and change how
// often the program collects; rss_peak_mb leaves them out (calResidentMB).
func offHeap[T uint32 | uint64](n int) []T {
	var w T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(w)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(err) // a few megabytes of anonymous memory
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// calResidentMB is the kernel's off-heap arrays, which every run touches.
const calResidentMB = float64(calWords*4+calStream*8) / (1 << 20)

// calCycle is one random cycle through calWords slots (Sattolo's
// shuffle), so every read depends on the one before.
func calCycle() []uint32 {
	next := offHeap[uint32](calWords)
	for i := range next {
		next[i] = uint32(i)
	}
	s := uint64(0x9E3779B97F4A7C15)
	for i := len(next) - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return next
}

func calSortKeys() ([]int, []int) {
	keys := make([]int, calSort)
	s := uint64(12345)
	for i := range keys {
		s = s*6364136223846793005 + 1442695040888963407
		keys[i] = int(s >> 33)
	}
	return keys, make([]int, calSort)
}

func calInts() (*big.Int, *big.Int, *big.Int) {
	x := new(big.Int).Lsh(big.NewInt(0x5DEECE66D), 1000)
	x.Add(x, big.NewInt(0xB))
	y := new(big.Int).Lsh(big.NewInt(0x2545F491), 700)
	y.Sub(y, big.NewInt(0x4F))
	z := new(big.Int).Mul(x, x) // room for every product below
	z.Mul(z, y)
	return x, y, z
}

// calMu serializes kernel runs, which share the kernel's arrays: the
// sampler's and those next to set-up builds.
var calMu sync.Mutex

// calRun runs the kernel once and returns its CPU time.
func calRun() time.Duration {
	calMu.Lock()
	defer calMu.Unlock()
	c0 := cpuNow()
	calKernel()
	return cpuNow() - c0
}

// calKernel runs the reference kernel once. It allocates nothing.
func calKernel() {
	for i := range calA {
		calA[i] = float64(i%7) * 0.5
		calB[i] = float64(i%5) * 0.25
		calC[i] = 0
	}
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < calN; i++ {
			for k := 0; k < calN; k++ {
				x := calA[i*calN+k]
				for j := 0; j < calN; j++ {
					calC[i*calN+j] += x * calB[k*calN+j]
				}
			}
		}
	}
	calSink += uint64(calC[calN+1])

	p := uint32(calSink % calWords)
	for i := 0; i < calReads; i++ {
		p = calNext[p]
	}
	calSink += uint64(p)

	clear(calBuf)
	for i := range calBuf {
		calBuf[i] += uint64(i) ^ calSink
	}
	calSink += calBuf[len(calBuf)/3]

	for i := 0; i < 1000; i++ {
		calZ.Mul(calX, calY)
		calZ.Add(calZ, calX)
	}
	calSink += uint64(calZ.Bits()[0])

	for rep := 0; rep < 3; rep++ {
		copy(calWork, calKeys)
		slices.Sort(calWork)
		calSink += uint64(calWork[calSort/2])
	}
}

// sampler runs the kernel every calEvery on its own goroutine and keeps
// each run's CPU time with the wall time it ran at.
type sampler struct {
	t0   time.Time
	mu   sync.Mutex
	at   []time.Duration // since t0, at the end of each kernel run
	ms   []float64       // CPU milliseconds of each kernel run
	own  time.Duration   // CPU time of every kernel run so far
	stop chan struct{}
	done chan struct{}
}

// startSampler starts a sampler for a run of about budget. Its buffers
// are sized up front, so that it allocates nothing while the run measures.
func startSampler(budget time.Duration) *sampler {
	n := int(4*budget/calEvery) + 1024
	s := &sampler{
		t0:   time.Now(),
		at:   make([]time.Duration, 0, n),
		ms:   make([]float64, 0, n),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			d := calRun()
			s.mu.Lock()
			s.at = append(s.at, time.Since(s.t0))
			s.ms = append(s.ms, float64(d)/1e6)
			s.own += d
			s.mu.Unlock()
		}
	}()
	return s
}

// close stops the sampler and waits for its goroutine to end.
func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// cpu is the process's CPU time less the kernel's: what the program and
// the benchmark's own code used.
func (s *sampler) cpu() time.Duration {
	if s == nil {
		return cpuNow()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return cpuNow() - s.own
}

// speed is the mean kernel time, in milliseconds, of the runs within
// calMargin of [start, end], less the slowest and fastest tenth, or 0 when
// there are none. A mean, because the host flips between a fast and a slow
// state and an op's CPU time adds up the time spent in each; trimmed,
// because a kernel run now and then waits on the program.
func (s *sampler) speed(start, end time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := start.Sub(s.t0) - calMargin
	hi := end.Sub(s.t0) + calMargin
	i := sort.Search(len(s.at), func(i int) bool { return s.at[i] >= lo })
	j := sort.Search(len(s.at), func(i int) bool { return s.at[i] > hi })
	if i >= j {
		return 0
	}
	return trimmedMean(s.ms[i:j], 0.1)
}

// trimmedMean is the mean of xs without the lowest and highest share of
// them.
func trimmedMean(xs []float64, share float64) float64 {
	v := slices.Clone(xs)
	slices.Sort(v)
	k := int(share * float64(len(v)))
	return mean(v[k : len(v)-k])
}

// near runs the kernel three times on the calling goroutine and returns the
// median time in milliseconds, or 0 without a sampler. A timing of a few
// milliseconds takes its speed from such runs just before and after it
// rather than from the sampler's, which are mostly around other work.
func (s *sampler) near() float64 {
	if s == nil {
		return 0
	}
	var ms [3]float64
	for i := range ms {
		ms[i] = float64(calRun()) / 1e6
	}
	return quantile(ms[:], 0.5)
}

// timing is one timed piece of work: its wall span, its CPU time less the
// kernel's and, when it was measured next to it, the kernel's speed.
type timing struct {
	start, end time.Time
	cpuMs      float64
	speedMs    float64
}

// scaled is t's CPU time at the kernel's nominal speed. Without a sampler,
// or without kernel runs near it, it is t's CPU time.
func (s *sampler) scaled(t timing) float64 {
	if s == nil {
		return t.cpuMs
	}
	k := t.speedMs
	if k == 0 {
		k = s.speed(t.start, t.end)
	}
	if k > 0 {
		return t.cpuMs * calNominalMs / k
	}
	return t.cpuMs
}
