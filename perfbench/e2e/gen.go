package main

import (
	"math"
	"math/rand"
)

// The generators below are carried by the benchmark itself rather than
// imported from the allocator's repository, so a parent commit and a change
// run byte-identical input code. They follow the YCSB definitions.

// zipfian draws ranks in [0, n) with popularity falling off as 1/rank^theta
// (Gray et al., "Quickly generating billion-record synthetic databases").
type zipfian struct {
	n           int64
	alpha, zeta float64
	eta, half   float64
}

func newZipfian(n int64, theta float64) *zipfian {
	zeta := func(n int64) float64 {
		var s float64
		for i := int64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipfian{n: n, zeta: zeta(n), alpha: 1 / (1 - theta)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zeta)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfian) next(r *rand.Rand) int64 {
	u := r.Float64()
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// scramble spreads a rank over [0, n) with an FNV-style hash under salt, so
// popular keys are not adjacent (YCSB's scrambled zipfian). A new salt moves
// the whole hot set.
func scramble(rank int64, salt uint64, n int64) int64 {
	h := uint64(rank) ^ salt
	h *= 0x100000001b3
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int64(h % uint64(n))
}

// expSize draws a size in [min, max] with an exponential offset of the
// given mean above min: most requests are small, a few are large.
func expSize(r *rand.Rand, min, max int, mean float64) int {
	v := min + int(r.ExpFloat64()*mean)
	if v > max {
		v = max
	}
	return v
}
