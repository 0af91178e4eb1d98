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
//
// -bytes-match names tracks whose bytes_per_op is gated the same way,
// against -bytes-tol. Allocated bytes barely depend on the host, so
// this gate holds where ns/op is noisy; an old entry without a
// bytes_per_op is skipped.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/benchrec"
)

func load(path string) (map[string]benchrec.Entry, error) {
	rec, err := benchrec.Load(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]benchrec.Entry, len(rec.Benchmarks))
	for _, b := range rec.Benchmarks {
		out[b.Name] = b
	}
	return out, nil
}

// metric is one gated quantity of a record entry.
type metric struct {
	unit string
	of   func(benchrec.Entry) float64
}

var (
	nsPerOp    = metric{"ns/op", func(e benchrec.Entry) float64 { return e.NsPerOp }}
	bytesPerOp = metric{"B/op", func(e benchrec.Entry) float64 { return float64(e.BytesPerOp) }}
)

func main() {
	var (
		oldPath    = flag.String("old", "", "baseline BENCH_<n>.json")
		newPath    = flag.String("new", "", "candidate BENCH_<n>.json")
		match      = flag.String("match", "", "comma-separated benchmark name prefixes to compare (empty = all shared names)")
		tol        = flag.Float64("tol", 0.10, "allowed fractional ns/op regression")
		bytesMatch = flag.String("bytes-match", "", "comma-separated benchmark name prefixes whose bytes_per_op is compared too (empty = none)")
		bytesTol   = flag.Float64("bytes-tol", 0.10, "allowed fractional bytes_per_op regression")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	oldRec, err := load(*oldPath)
	if err != nil {
		fail(err)
	}
	newRec, err := load(*newPath)
	if err != nil {
		fail(err)
	}

	g := gate{old: oldRec, new: newRec, oldPath: *oldPath, newPath: *newPath}
	g.run(nsPerOp, *match, *tol)
	if *bytesMatch != "" {
		g.run(bytesPerOp, *bytesMatch, *bytesTol)
	}
	if g.regressed > 0 {
		fail(fmt.Errorf("%d of %d comparisons regressed past tolerance", g.regressed, g.compared))
	}
	if g.compared == 0 {
		// Every track was skipped: nothing was actually gated. Reporting
		// success here would let a record mismatch (wrong -old file, all
		// tracks newer than the baseline) silently disable the gate, so
		// this exits with its own code — distinct from a regression (1)
		// and from usage errors (2) — for CI to treat as a configuration
		// failure.
		fmt.Fprintf(os.Stderr, "benchdrift: no benchmark was compared — every track is missing from %s (baseline too old or wrong file?)\n", *oldPath)
		os.Exit(3)
	}
	fmt.Printf("benchdrift: %d comparisons within tolerance\n", g.compared)
}

// gate compares the new record with the old one, track by track, and
// counts the comparisons made and the regressions found.
type gate struct {
	old, new            map[string]benchrec.Entry
	oldPath, newPath    string
	compared, regressed int
}

// run compares metric m on every benchmark matching one of the
// comma-separated tracks, failing a value above (1+tol)× its old one.
func (g *gate) run(m metric, tracks string, tol float64) {
	for _, track := range strings.Split(tracks, ",") {
		track = strings.TrimSpace(track)
		matched, compared := 0, 0
		for name, e := range g.new {
			if !strings.HasPrefix(name, track) {
				continue
			}
			matched++
			old, ok := g.old[name]
			base := m.of(old)
			if !ok || base <= 0 {
				fmt.Printf("%-45s %27s  skipped (no %s in %s)\n", name, "-", m.unit, g.oldPath)
				continue
			}
			compared++
			v := m.of(e)
			ratio := v / base
			status := "ok"
			if ratio > 1+tol {
				status = fmt.Sprintf("REGRESSED beyond %.0f%%", tol*100)
				g.regressed++
			}
			fmt.Printf("%-45s %12.0f -> %12.0f %-5s  (%+.1f%%)  %s\n",
				name, base, v, m.unit, (ratio-1)*100, status)
		}
		if matched == 0 {
			// Nothing in the NEW record matches the track: the gate would
			// silently stop gating. That is an error, unlike a track the
			// OLD record simply predates.
			fail(fmt.Errorf("no benchmark in %s matches prefix %q", g.newPath, track))
		}
		if compared == 0 {
			fmt.Printf("benchdrift: notice: track %q (%s) not present in %s — skipped (new track?)\n",
				track, m.unit, g.oldPath)
		}
		g.compared += compared
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdrift:", err)
	os.Exit(1)
}
