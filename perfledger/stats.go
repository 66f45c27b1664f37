package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine and toolchain a run was measured on. Host
// time is only comparable between runs whose stamps are equal.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

func hostStamp() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}

// cpuModel returns the kernel's name for the processor, or "unknown" where
// /proc/cpuinfo is absent or carries no model name.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMiB returns the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tailQuantile is the reported op tail. A sweep has 60 tasks, so over its
// three or more sweeps at least ten lie beyond p90; a churn campaign has
// ~4000 arrivals. p99 of the arrivals spread 23% from run to run on a
// shared 2-vCPU host (collector pauses and host stalls own that tail), p90
// a few percent.
const tailQuantile = 0.90

// quantile returns the q-quantile of xs by nearest rank (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// another reports whether a timed loop that has taken the samples in walls
// (s) should start one more: always below min samples, and after that while
// half a sample of the median length still fits before deadline, so a run
// measures --seconds give or take half a sample instead of overrunning by up
// to a whole one.
func another(walls []float64, min int, deadline time.Time) bool {
	if len(walls) < min {
		return true
	}
	half := time.Duration(median(walls) / 2 * float64(time.Second))
	return time.Now().Add(half).Before(deadline)
}

// median is the middle value, averaging the two middle values for an even
// count, so an even number of repetitions does not bias toward either.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0 (JSON cannot carry NaN or Inf).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timedMedian runs fn reps times and returns the median wall time; every rep
// runs the complete preparation, so the median is the set-up cost itself.
// Each rep starts from a collected heap, so no rep pays for garbage an
// earlier one left behind.
func timedMedian(reps int, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}
