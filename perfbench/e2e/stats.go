package main

import (
	"slices"
	"time"
)

var epoch = time.Now()

// nowNS reads the monotonic clock in ns since the process started.
func nowNS() int64 { return int64(time.Since(epoch)) }

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted samples as the mean of the
// samples whose rank lies within (1-q)/10 of q. Averaging a narrow rank
// window keeps the estimate on its percentile while smoothing the integer
// ties of a nanosecond clock. The second result is the number of samples
// beyond the quantile.
func quantile(sorted []int32, q float64) (float64, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	d := (1 - q) / 10
	lo := int(float64(n) * (q - d))
	hi := int(float64(n)*(q+d)) + 1
	lo, hi = max(lo, 0), min(hi, n)
	if lo >= hi {
		lo = min(lo, n-1)
		hi = lo + 1
	}
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo), n - int(float64(n)*q)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func sortedInt32(xs []int32) []int32 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
