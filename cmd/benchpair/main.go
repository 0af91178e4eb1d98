// Command benchpair records a baseline and a candidate BENCH_<n>.json
// from interleaved runs, so that both records sample the same stretches
// of a host whose speed drifts.
//
// It builds cmd/benchtables from both source trees and takes the
// benchmark names from the candidate's `benchtables -list`. Then, -pairs
// times over the whole list, it runs each benchmark once per side, back
// to back: `benchtables -json 1 -scale 0.08 -bench '^<name>$'` (the
// scale of every committed record), each run in a fresh directory. The
// two runs of a benchmark are seconds apart, where whole-suite passes
// were a minute apart; a host that speeds up or slows down between
// stretches of minutes therefore favors neither side. The side that runs
// first alternates from benchmark to benchmark and from pair to pair.
// Each record keeps, per benchmark, its median run by ns/op (the lower
// median for an even count), and the summary printed at the end says in
// how many pairs the candidate was faster.
//
// Both trees need a benchtables with -list and -bench. To record against
// a parent that predates them, overlay the candidate's
// cmd/benchtables/main.go onto a copy of the parent (the benchmark
// bodies stay the parent's).
//
// Usage:
//
//	benchpair -old ../parent -new . -old-json 16 -new-json 17 -pairs 11
//
// The two records are written into the current directory. A benchmark
// the baseline's benchtables does not list is recorded for the
// candidate only.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/benchrec"
)

func main() {
	var (
		oldDir  = flag.String("old", "", "baseline source tree (repo root)")
		newDir  = flag.String("new", ".", "candidate source tree (repo root)")
		oldN    = flag.Int("old-json", 0, "write the baseline record as BENCH_<n>.json")
		newN    = flag.Int("new-json", 0, "write the candidate record as BENCH_<n>.json")
		pairs   = flag.Int("pairs", 11, "number of interleaved pass pairs")
		workDir = flag.String("work", "", "directory for binaries and run outputs (default: a new temp dir)")
		bench   = flag.String("bench", "", "record only the benchmarks whose name matches this regular expression")
	)
	flag.Parse()
	if *oldDir == "" || *oldN <= 0 || *newN <= 0 || *oldN == *newN || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	filter, err := regexp.Compile(*bench)
	if err != nil {
		fail(err)
	}
	work := *workDir
	if work == "" {
		if work, err = os.MkdirTemp("", "benchpair"); err != nil {
			fail(err)
		}
	}
	sides := []*side{{name: "old", src: *oldDir}, {name: "new", src: *newDir}}
	for _, sd := range sides {
		if err := sd.build(work); err != nil {
			fail(err)
		}
	}
	var names []string
	for _, name := range sides[1].names {
		if filter.MatchString(name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		fail(fmt.Errorf("-bench %q matches no benchmark", *bench))
	}
	for i := 0; i < *pairs; i++ {
		for j, name := range names {
			order := sides
			if newFirst(i, j) {
				order = []*side{sides[1], sides[0]}
			}
			fmt.Fprintf(os.Stderr, "benchpair: pair %d/%d, %s\n", i+1, *pairs, name)
			for _, sd := range order {
				if err := sd.run(work, i, j, name); err != nil {
					fail(err)
				}
			}
		}
	}
	oldRec, newRec := sides[0].median(), sides[1].median()
	for _, w := range []struct {
		n   int
		rec *benchrec.Record
	}{{*oldN, oldRec}, {*newN, newRec}} {
		path := fmt.Sprintf("BENCH_%d.json", w.n)
		if err := w.rec.Write(path); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "benchpair: wrote %s (median of %d runs)\n", path, *pairs)
	}
	summarize(sides[0], sides[1], oldRec, newRec)
}

// newFirst reports whether the candidate runs first for the j-th
// benchmark of pair i: the first side alternates from benchmark to
// benchmark and from pair to pair.
func newFirst(i, j int) bool { return (i+j)%2 == 1 }

// side is one source tree: its benchtables binary, the benchmarks it
// lists, and its runs, gathered into one record per pair.
type side struct {
	name   string
	src    string
	bin    string
	names  []string
	passes []*benchrec.Record
}

func (sd *side) build(work string) error {
	bin, err := filepath.Abs(filepath.Join(work, "benchtables-"+sd.name))
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/benchtables")
	cmd.Dir = sd.src
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build %s (%s): %w", sd.name, sd.src, err)
	}
	sd.bin = bin
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		return fmt.Errorf("%s: benchtables -list: %w", sd.name, err)
	}
	sd.names = strings.Fields(string(out))
	return nil
}

// run runs benchmark name once in its own directory and files its entry
// under pair i.
func (sd *side) run(work string, i, j int, name string) error {
	if !slices.Contains(sd.names, name) {
		return nil
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%02d-%02d", sd.name, i, j))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, err := os.Create(filepath.Join(dir, "benchtables.log"))
	if err != nil {
		return err
	}
	defer log.Close()
	cmd := exec.Command(sd.bin, "-json", "1", "-scale", "0.08", "-bench", "^"+regexp.QuoteMeta(name)+"$")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s pair %d: %w (log: %s)", sd.name, name, i, err, log.Name())
	}
	rec, err := benchrec.Load(filepath.Join(dir, "BENCH_1.json"))
	if err != nil {
		return err
	}
	if i == len(sd.passes) {
		pass := *rec
		pass.Benchmarks = nil
		sd.passes = append(sd.passes, &pass)
	}
	sd.passes[i].Benchmarks = append(sd.passes[i].Benchmarks, rec.Benchmarks...)
	return nil
}

// median builds the side's record: the first pass's header, and per
// benchmark the entry of its median pass by ns/op.
func (sd *side) median() *benchrec.Record {
	rec := *sd.passes[0]
	rec.Date = time.Now().UTC().Format(time.RFC3339)
	rec.BestOf = 0
	rec.MedianOf = len(sd.passes)
	rec.Benchmarks = nil
	for _, first := range sd.passes[0].Benchmarks {
		runs := sd.runs(first.Name)
		sort.Slice(runs, func(a, b int) bool { return runs[a].NsPerOp < runs[b].NsPerOp })
		rec.Benchmarks = append(rec.Benchmarks, runs[(len(runs)-1)/2])
	}
	return &rec
}

// runs returns the benchmark's entry from every pass that ran it, in
// pass order.
func (sd *side) runs(name string) []benchrec.Entry {
	var out []benchrec.Entry
	for _, p := range sd.passes {
		for _, e := range p.Benchmarks {
			if e.Name == name {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// summarize prints, per benchmark both sides ran, the two medians and
// the pairs in which the candidate's run was faster.
func summarize(oldSd, newSd *side, oldRec, newRec *benchrec.Record) {
	newMed := map[string]benchrec.Entry{}
	for _, e := range newRec.Benchmarks {
		newMed[e.Name] = e
	}
	for _, o := range oldRec.Benchmarks {
		n, ok := newMed[o.Name]
		if !ok {
			continue
		}
		oldRuns, newRuns := oldSd.runs(o.Name), newSd.runs(o.Name)
		won, paired := 0, min(len(oldRuns), len(newRuns))
		for i := 0; i < paired; i++ {
			if newRuns[i].NsPerOp < oldRuns[i].NsPerOp {
				won++
			}
		}
		fmt.Printf("%-45s %12.0f -> %12.0f ns/op  (%+.1f%%)  new faster in %d/%d pairs\n",
			o.Name, o.NsPerOp, n.NsPerOp, (n.NsPerOp/o.NsPerOp-1)*100, won, paired)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchpair:", err)
	os.Exit(1)
}
