package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantile is the quantile reported as op_p95_ms for n samples: the
// highest quantile that still has at least ten samples beyond it, capped
// at 0.95 and floored at the median (with fewer than 20 samples no tail
// quantile above the median has ten samples beyond it, so the median is
// the most that can be said).
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	return math.Max(0.5, math.Min(0.95, q))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points of xs into four groups exactly
// as Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method) computes them. It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	var out [3]float64
	if len(xs) < 2 {
		if len(xs) == 1 {
			out = [3]float64{xs[0], xs[0], xs[0]}
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
