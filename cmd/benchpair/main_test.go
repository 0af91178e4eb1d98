package main

import (
	"testing"

	"repro/internal/benchrec"
)

func passOf(ns ...float64) *benchrec.Record {
	rec := &benchrec.Record{BestOf: 8}
	names := []string{"A", "B"}
	for i, v := range ns {
		rec.Benchmarks = append(rec.Benchmarks, benchrec.Entry{Name: names[i], NsPerOp: v, AllocsPerOp: int64(v)})
	}
	return rec
}

// TestMedianKeepsMedianPass pins the record rule: per benchmark, the
// whole entry of the pass with the median ns/op (the lower median for
// an even count), independently per benchmark.
func TestMedianKeepsMedianPass(t *testing.T) {
	sd := &side{passes: []*benchrec.Record{passOf(30, 5), passOf(10, 4), passOf(20, 1)}}
	rec := sd.median()
	if rec.MedianOf != 3 || rec.BestOf != 0 {
		t.Fatalf("header: median_of %d best_of %d", rec.MedianOf, rec.BestOf)
	}
	if got := rec.Benchmarks[0]; got.Name != "A" || got.NsPerOp != 20 || got.AllocsPerOp != 20 {
		t.Fatalf("A: %+v, want the 20 ns pass", got)
	}
	if got := rec.Benchmarks[1]; got.Name != "B" || got.NsPerOp != 4 {
		t.Fatalf("B: %+v, want the 4 ns pass", got)
	}
	sd.passes = append(sd.passes, passOf(40, 2))
	if got := sd.median().Benchmarks[0].NsPerOp; got != 20 {
		t.Fatalf("even count: A median %v, want the lower median 20", got)
	}
}

// TestNewFirstAlternates pins the run order: within a pair the side that
// runs first alternates from benchmark to benchmark, and each benchmark
// alternates from pair to pair.
func TestNewFirstAlternates(t *testing.T) {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if newFirst(i, j) == newFirst(i, j+1) || newFirst(i, j) == newFirst(i+1, j) {
				t.Fatalf("pair %d benchmark %d: order does not alternate", i, j)
			}
		}
	}
}
