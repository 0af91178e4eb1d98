package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p99 over fewer than 1000 samples is one or two
// outliers, not a percentile.
const minBeyond = 10

// ladder is the percentile fallback order of tail metrics.
var ladder = []int{99, 95, 90, 75, 50}

// samples is a latency distribution in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// percentile returns the nearest-rank q-th percentile of s and whether
// at least minBeyond samples lie above that rank.
func (s samples) percentile(q int) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := max((q*len(sorted)+99)/100, 1) // ⌈q·n/100⌉ in exact arithmetic
	return sorted[rank-1], len(sorted)-rank >= minBeyond
}

// tail returns the highest percentile at or below q that qualifies.
func (s samples) tail(q int) (value float64, at int, ok bool) {
	for _, p := range ladder {
		if p > q {
			continue
		}
		if v, ok := s.percentile(p); ok {
			return v, p, true
		}
	}
	return 0, 0, false
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // sample count behind a percentile (0 = not a percentile)
}

// report collects a run's metrics in print order.
type report struct {
	names []string
	m     map[string]metric
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.setN(name, v, unit, 0)
}

func (r *report) setN(name string, v float64, unit string, n int) {
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit, n: n}
}

// setTail reports the q-th percentile of s as prefix_p<q>_us, or the
// highest percentile below it that has minBeyond samples above it,
// under that percentile's own name.
func (r *report) setTail(prefix string, s samples, q int) {
	if v, at, ok := s.tail(q); ok {
		r.setN(fmt.Sprintf("%s_p%d_us", prefix, at), v, "us", len(s))
	}
}

func (r *report) print(header string) {
	fmt.Println(header)
	for _, name := range r.names {
		m := r.m[name]
		line := fmt.Sprintf("  %-34s %14.4f %s", name, m.Value, m.Unit)
		if m.n > 0 {
			line += fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Println(line)
	}
}
