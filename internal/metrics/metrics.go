// Package metrics implements the paper's evaluation metrics (§4.5): query
// error (L1), query execution time (QET), logical gap, and outsourced /
// dummy storage sizes — as tick-indexed time series with the aggregate
// statistics Table 5 reports (mean, max).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dpsync/internal/record"
)

// Sample is one time-series point.
type Sample struct {
	Tick  record.Tick
	Value float64
}

// Series is a named tick-indexed sequence of measurements.
type Series struct {
	Name    string
	Samples []Sample
}

// NewSeries returns an empty series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a measurement.
func (s *Series) Add(t record.Tick, v float64) {
	s.Samples = append(s.Samples, Sample{Tick: t, Value: v})
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.Samples) }

// Mean returns the arithmetic mean (0 for empty series).
func (s *Series) Mean() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Samples {
		sum += p.Value
	}
	return sum / float64(len(s.Samples))
}

// Max returns the largest value (0 for empty series).
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Samples {
		if p.Value > m {
			m = p.Value
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Last returns the final value (0 for empty series) — used for end-of-run
// storage totals.
func (s *Series) Last() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].Value
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank.
func (s *Series) Quantile(q float64) float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	vals := make([]float64, len(s.Samples))
	for i, p := range s.Samples {
		vals[i] = p.Value
	}
	sort.Float64s(vals)
	idx := int(math.Ceil(q*float64(len(vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}

// Downsample returns a copy keeping every k-th sample (k ≥ 1), for compact
// plotting output.
func (s *Series) Downsample(k int) *Series {
	if k < 1 {
		k = 1
	}
	out := NewSeries(s.Name)
	for i := 0; i < len(s.Samples); i += k {
		out.Samples = append(out.Samples, s.Samples[i])
	}
	return out
}

// TSV renders the series as "tick\tvalue" lines, the exchange format the
// bench harness emits for external plotting.
func (s *Series) TSV() string {
	var b strings.Builder
	for _, p := range s.Samples {
		fmt.Fprintf(&b, "%d\t%g\n", p.Tick, p.Value)
	}
	return b.String()
}

// BytesToMegabits converts a byte count to the paper's "Mb" storage unit.
func BytesToMegabits(bytes int64) float64 {
	return float64(bytes) * 8 / 1e6
}
