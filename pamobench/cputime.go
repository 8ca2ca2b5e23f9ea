package main

import (
	"syscall"
	"time"
)

// cpuNow is the CPU time the whole process has used, every thread and the
// garbage collector included. With one P the program runs on one thread at
// a time, so the CPU time of a closed-loop operation is its latency on a
// core of its own. Unlike wall time it leaves out the time a shared host
// gives the core to someone else (the kernel accounts that as steal).
// getrusage sums the threads' exact run times; CLOCK_PROCESS_CPUTIME_ID
// would do too, but falls back to scheduler ticks while the CPU profiler's
// timers are armed.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
