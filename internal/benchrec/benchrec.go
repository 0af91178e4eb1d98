// Package benchrec is the BENCH_<n>.json perf record format that
// `benchtables -json` writes, `benchpair` merges and `benchdrift`
// compares.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
)

// Entry is one benchmark measurement. P50Ns/P99Ns carry the
// client-observed batch latency quantiles of the serving tracks
// (reported via b.ReportMetric as p50-ns / p99-ns); they are absent for
// tracks that only measure ns/op.
type Entry struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	P50Ns       float64 `json:"p50_ns,omitempty"`
	P99Ns       float64 `json:"p99_ns,omitempty"`
}

// Record is the machine-readable perf trajectory record. Every perf PR
// regenerates BENCH_<pr>.json so regressions and wins diff cleanly.
// ExperimentSeed applies to the experiment-driver benchmarks (Table3,
// StaticCompression); the micro benchmarks use the benchsuite-pinned
// corpus/rename seeds so they match `go test -bench` exactly.
//
// BestOf > 1 marks a record that kept each benchmark's fastest of that
// many suite passes; MedianOf > 0 marks one that kept each benchmark's
// median pass out of that many, interleaved with the passes of the
// record it is compared with (see cmd/benchpair). Records are only
// comparable when both were made the same way.
type Record struct {
	Date           string  `json:"date"`
	GoVersion      string  `json:"go_version"`
	GOOS           string  `json:"goos"`
	GOARCH         string  `json:"goarch"`
	Scale          float64 `json:"scale"`
	MicroScale     float64 `json:"micro_scale"`
	BestOf         int     `json:"best_of,omitempty"`
	MedianOf       int     `json:"median_of,omitempty"`
	ExperimentSeed int64   `json:"experiment_seed"`
	CorpusSeed     int64   `json:"corpus_seed"`
	RenameSeed     int64   `json:"rename_seed"`
	Benchmarks     []Entry `json:"benchmarks"`
}

// Load reads a record from path.
func Load(path string) (*Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// Write stores rec at path as indented JSON.
func (rec *Record) Write(path string) error {
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
