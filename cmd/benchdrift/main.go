// Command benchdrift compares two committed BENCH_<n>.json records and
// fails when a benchmark regressed past tolerance — the perf trajectory
// gate that CI runs on every PR. Both records are produced by
// `benchtables -json` on the same machine, so a ratio drift between the
// committed files is a real code regression, not machine noise.
//
// Usage:
//
//	benchdrift -old BENCH_4.json -new BENCH_5.json \
//	    -match StoreUpdateStream/EW,StoreUpdateStream/XM,StoreUpdateStream/TB -tol 0.10
//
// -match takes one or more comma-separated name prefixes (tracks).
// Every benchmark in the new record matching a track and present in the
// old record is compared by ns/op; a run above (1+tol)× its old value
// is a failure. A track matching nothing in the NEW record is a failure
// (a renamed benchmark must not silently disable the gate), but a track
// whose benchmarks are missing from the OLD record is skipped with a
// notice — older records predate newly added tracks, and the gate must
// degrade gracefully across that boundary instead of crashing the CI
// job.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchrec"
)

func load(path string) (map[string]float64, error) {
	rec, err := benchrec.Load(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(rec.Benchmarks))
	for _, b := range rec.Benchmarks {
		out[b.Name] = b.NsPerOp
	}
	return out, nil
}

func main() {
	var (
		oldPath = flag.String("old", "", "baseline BENCH_<n>.json")
		newPath = flag.String("new", "", "candidate BENCH_<n>.json")
		match   = flag.String("match", "", "comma-separated benchmark name prefixes to compare (empty = all shared names)")
		tol     = flag.Float64("tol", 0.10, "allowed fractional ns/op regression")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	oldNs, err := load(*oldPath)
	if err != nil {
		fail(err)
	}
	newNs, err := load(*newPath)
	if err != nil {
		fail(err)
	}

	tracks := strings.Split(*match, ",")
	totalCompared, totalRegressed := 0, 0
	for _, track := range tracks {
		track = strings.TrimSpace(track)
		matched, compared, regressed := 0, 0, 0
		for name, ns := range newNs {
			if !strings.HasPrefix(name, track) {
				continue
			}
			matched++
			base, ok := oldNs[name]
			if !ok || base <= 0 {
				fmt.Printf("%-45s %27s  skipped (not in %s)\n", name, "-", *oldPath)
				continue
			}
			compared++
			ratio := ns / base
			status := "ok"
			if ratio > 1+*tol {
				status = fmt.Sprintf("REGRESSED beyond %.0f%%", *tol*100)
				regressed++
			}
			fmt.Printf("%-45s %12.0f -> %12.0f ns/op  (%+.1f%%)  %s\n",
				name, base, ns, (ratio-1)*100, status)
		}
		if matched == 0 {
			// Nothing in the NEW record matches the track: the gate would
			// silently stop gating. That is an error, unlike a track the
			// OLD record simply predates.
			fail(fmt.Errorf("no benchmark in %s matches prefix %q", *newPath, track))
		}
		if compared == 0 {
			fmt.Printf("benchdrift: notice: track %q not present in %s — skipped (new track?)\n",
				track, *oldPath)
		}
		totalCompared += compared
		totalRegressed += regressed
	}
	if totalRegressed > 0 {
		fail(fmt.Errorf("%d of %d benchmarks regressed more than %.0f%%",
			totalRegressed, totalCompared, *tol*100))
	}
	if totalCompared == 0 {
		// Every track was skipped: nothing was actually gated. Reporting
		// success here would let a record mismatch (wrong -old file, all
		// tracks newer than the baseline) silently disable the gate, so
		// this exits with its own code — distinct from a regression (1)
		// and from usage errors (2) — for CI to treat as a configuration
		// failure.
		fmt.Fprintf(os.Stderr, "benchdrift: no benchmark was compared — every track is missing from %s (baseline too old or wrong file?)\n", *oldPath)
		os.Exit(3)
	}
	fmt.Printf("benchdrift: %d benchmarks within %.0f%% of baseline\n", totalCompared, *tol*100)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdrift:", err)
	os.Exit(1)
}
