package main

import (
	"crypto/sha256"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB is the process's peak resident set size in MiB, as getrusage
// reports it (ru_maxrss is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total ticks. Both are 0 where the file is missing.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Fields after steal (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of CPU ticks the hypervisor stole between two
// cpuTicks readings.
func stealShare(s0, t0, s1, t1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// refLoopMS times a fixed standard-library workload (64 SHA-256 passes
// over 64 KiB) five times and returns the median in milliseconds. Run at
// the start and end of a run, it shows how fast the host was, apart from
// the program under test.
func refLoopMS() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		for j := 0; j < 64; j++ {
			sum := sha256.Sum256(buf)
			buf[j] ^= sum[0]
		}
		times[i] = ms(time.Since(t0))
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
