package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample-count rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure never rests on a
// handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs: the
// smallest sample with at least p·n samples at or below it. xs is not
// modified. NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps a product like 0.58·100 = 58.000000000000007 on
	// rank 58.
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// groupedMedian is the median of samples recorded in whole units of width
// (lifecycle stamps are whole milliseconds), interpolated within the median
// unit as for grouped data: L + (n/2 − below)/inUnit · width, where L is the
// unit's lower edge. It resolves shifts smaller than one unit that the plain
// median of the rounded samples cannot show.
func groupedMedian(xs []float64, width float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := median(xs)
	var below, in int
	for _, x := range xs {
		switch {
		case math.Abs(x-m) < width/2:
			in++
		case x < m:
			below++
		}
	}
	return m - width/2 + (float64(len(xs))/2-float64(below))/float64(in)*width
}

// tailRank is the highest percentile no greater than want that still has at
// least minBeyond of n samples beyond it. When n is too small for even the
// median to qualify, the median is returned: the tail is then unresolved and
// the caller states the sample count.
func tailRank(want float64, n int) float64 {
	if n <= 0 {
		return 0.5
	}
	p := 1 - float64(minBeyond)/float64(n)
	if p > want {
		p = want
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

// tail returns the sample-count-limited want-percentile of xs together with
// the percentile actually used.
func tail(xs []float64, want float64) (value, used float64) {
	used = tailRank(want, len(xs))
	return percentile(xs, used), used
}

// validName reports whether s is a legal metric or workload name: it starts
// with a letter or digit and holds at most 64 letters, digits, '_', '.' and
// '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: at most 16 letters, digits,
// '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if s == "" || len(s) > 16 {
		return false
	}
	for _, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			r >= '0' && r <= '9'
		if !alnum && r != '_' && r != '/' && r != '%' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a named set of figures, checked before it is printed.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// check rejects illegal names or units and non-finite values.
func (m metrics) check() error {
	for name, v := range m {
		if !validName(name) {
			return fmt.Errorf("invalid metric name %q", name)
		}
		if !validUnit(v.Unit) {
			return fmt.Errorf("metric %s: invalid unit %q", name, v.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s: non-finite value %v", name, v.Value)
		}
	}
	return nil
}
