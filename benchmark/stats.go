package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p ≤ 1) of samples by the
// nearest-rank rule, with the number of samples strictly beyond it — the
// count that says whether the tail is supported. It sorts a copy.
func percentile(samples []float64, p float64) (value float64, beyond int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// median is the middle sample, or the mean of the two middle samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// summary is one metric over repetitions: Value is what is reported, and
// the median and range of the per-repetition values ride alongside so the
// reader sees how far the repetitions disagreed.
type summary struct {
	N      int     `json:"n"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize reports the median of the repetitions.
func summarize(reps []float64) summary {
	if len(reps) == 0 {
		return summary{}
	}
	s := summary{N: len(reps), Median: median(reps), Min: reps[0], Max: reps[0]}
	for _, v := range reps {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Value = s.Median
	return s
}

// single is a metric measured once.
func single(v float64) summary { return summary{N: 1, Value: v, Median: v, Min: v, Max: v} }
