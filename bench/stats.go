package main

import (
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartileSpread is the driver's measure of how far runs of identical code
// disagree: the distance between the first and the third quartile, as
// Python's statistics.quantiles(xs, n=4) places them, over the median.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time, so GC and fan-out
// workers count against the query that caused them.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibMs times a fixed register-only xorshift loop (shortened with the
// smoke test's scale). It is reported so a slow host can be told from a
// slow program; nothing is normalised by it.
func calibMs(scale float64) float64 {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i, n := 0, int((1<<26)*scale); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return msSince(start)
}
