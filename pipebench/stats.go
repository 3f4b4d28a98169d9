package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
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

// collect maps every sample through f.
func collect[T any](xs []T, f func(*T) float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = f(&xs[i])
	}
	return out
}

// perRound divides a total by a round count (0 when no round ran).
func perRound(total float64, rounds int) float64 {
	if rounds == 0 {
		return 0
	}
	return total / float64(rounds)
}
