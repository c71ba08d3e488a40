package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples a reported tail percentile must leave above
// it. With fewer, the "percentile" is one or two outliers, not a tail.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of ascending xs (0 when xs
// is empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)-1]
}

// rankOf is the 1-based nearest rank of the q-quantile among n samples.
// The epsilon keeps q*n for exact products like 0.99*1000 from rounding up
// to the next rank.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the nearest-rank median of xs, which it leaves unsorted.
func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is one reported tail percentile: the percentile actually used, its
// value, the sample count and how many samples lie above it.
type tail struct {
	Q      float64
	Value  float64
	N      int
	Beyond int
}

// tailPercentile reports the want-quantile of xs, lowered to the highest
// percentile that still leaves minBeyond samples above it. With minBeyond
// samples or fewer no percentile qualifies, and the maximum is reported.
func tailPercentile(xs []float64, want float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	q := want
	if n <= minBeyond {
		q = 1
	} else if lim := float64(n-minBeyond) / float64(n); q > lim {
		q = lim
	}
	if n == 0 {
		return tail{Q: q}
	}
	r := rankOf(n, q)
	return tail{Q: q, Value: s[r-1], N: n, Beyond: n - r}
}

// String names the percentile used and its sample count, the context every
// printed tail figure carries.
func (t tail) String() string {
	return fmt.Sprintf("p%.4g of n=%d (%d beyond)", 100*t.Q, t.N, t.Beyond)
}
