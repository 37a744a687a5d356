package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m[name] = metric{Value: value, Unit: unit}
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of ds in
// milliseconds, or 0 for an empty sample.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return ms(s[k])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is num/den, or 0 when den is 0 (the layer did no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
