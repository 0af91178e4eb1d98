// Command benchpair records a baseline and a candidate BENCH_<n>.json
// from interleaved suite passes, so that both records sample the same
// stretches of a host whose speed drifts.
//
// It builds cmd/benchtables from both source trees, then runs -pairs
// pairs of `benchtables -json 1 -scale 0.08` passes (the scale of every
// committed record), one per side, each in a fresh directory. The side that runs first alternates from pair to
// pair (old first, new first, old first, ...), so a host that speeds up
// or slows down over the session favors neither side. Each record keeps,
// per benchmark, its median pass by ns/op (the lower median for an even
// count), and the summary printed at the end says in how many pairs the
// candidate was faster.
//
// Usage:
//
//	benchpair -old ../parent -new . -old-json 16 -new-json 17 -pairs 11
//
// The two records are written into the current directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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
		workDir = flag.String("work", "", "directory for binaries and pass outputs (default: a new temp dir)")
	)
	flag.Parse()
	if *oldDir == "" || *oldN <= 0 || *newN <= 0 || *oldN == *newN || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	work := *workDir
	if work == "" {
		var err error
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
	for i := 0; i < *pairs; i++ {
		order := sides
		if i%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, sd := range order {
			fmt.Fprintf(os.Stderr, "benchpair: pair %d/%d, %s side\n", i+1, *pairs, sd.name)
			if err := sd.pass(work, i); err != nil {
				fail(err)
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
		fmt.Fprintf(os.Stderr, "benchpair: wrote %s (median of %d passes)\n", path, *pairs)
	}
	summarize(sides[0], sides[1])
}

// side is one source tree: its benchtables binary and its passes.
type side struct {
	name   string
	src    string
	bin    string
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
	return nil
}

// pass runs one suite pass in its own directory and keeps its record.
func (sd *side) pass(work string, i int) error {
	dir := filepath.Join(work, fmt.Sprintf("%s-%02d", sd.name, i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	log, err := os.Create(filepath.Join(dir, "benchtables.log"))
	if err != nil {
		return err
	}
	defer log.Close()
	cmd := exec.Command(sd.bin, "-json", "1", "-scale", "0.08")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s pass %d: %w (log: %s)", sd.name, i, err, log.Name())
	}
	rec, err := benchrec.Load(filepath.Join(dir, "BENCH_1.json"))
	if err != nil {
		return err
	}
	sd.passes = append(sd.passes, rec)
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
// the pairs in which the candidate's pass was faster.
func summarize(oldSd, newSd *side) {
	newMed := map[string]benchrec.Entry{}
	for _, e := range newSd.median().Benchmarks {
		newMed[e.Name] = e
	}
	for _, o := range oldSd.median().Benchmarks {
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
