package main

import "syscall"

// cpuSeconds returns the CPU time the process has been given, user and
// system, over all its threads. The benchmark times its throughputs and
// set-ups with it instead of the wall clock: on a virtual host the
// hypervisor takes the CPU away from the guest for bursts of seconds
// (steal time), and those bursts, not the program, then decide a
// wall-clock rate. The kernel charges stolen time to no process. For
// the sequential simulator and the single-threaded control plane, CPU
// time equals wall time on a host nobody else uses.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // RUSAGE_SELF cannot fail on Linux
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
