package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
)

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does
// not name.
const rusageThread = 1

// cpuSeconds is the CPU time (user plus system) of the calling OS
// thread. main locks the measuring goroutine to its thread, so this is
// the time the loop itself ran: the program's work, including the
// allocation and garbage-collection assists charged to it. It leaves
// out time the hypervisor steals, and the collector's background and
// idle mark workers on the other core. Those run in parallel with the
// loop, and their CPU time depends on whether that core is free, not
// on the program.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err) // RUSAGE_THREAD with a valid pointer cannot fail on Linux
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// resetPeakRSS sets the process's resident-set high-water mark to its
// current resident set (Linux: "5" to /proc/self/clear_refs), so the
// next peakRSS reads the peak of what ran in between. Where the reset
// is not supported the mark keeps counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakRSS is the resident-set high-water mark in bytes: since the last
// resetPeakRSS where that works, else since the process started.
func peakRSS() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(v, []byte("kB")))), 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}
