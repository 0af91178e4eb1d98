package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// namedGrammar is one recompression input of the scratch-reuse tests.
type namedGrammar struct {
	name string
	g    *grammar.Grammar
}

// parityInput returns the parity corpus c's TreeRePair grammar degraded
// by the parity harness's renames (scale 0.05, 40 renames, seed 7).
func parityInput(t testing.TB, c datasets.Corpus) *grammar.Grammar {
	t.Helper()
	doc := c.Generate(0.05, 20160516).Binary()
	g, _ := treerepair.Compress(doc, treerepair.Options{})
	if err := update.ApplyAll(g, workload.Renames(doc, 40, 7)); err != nil {
		t.Fatal(err)
	}
	return g
}

// reuseInputs returns the parity corpora (as trees and as degraded
// grammars), G1–G12 and seeded update-degraded random grammars.
func reuseInputs(t *testing.T) []namedGrammar {
	t.Helper()
	var in []namedGrammar
	for _, c := range datasets.Corpora() {
		doc := c.Generate(0.05, 20160516).Binary()
		in = append(in,
			namedGrammar{c.Short + "/tree", grammar.FromTree(doc.Syms.Clone(), doc.Root.Copy())},
			namedGrammar{c.Short + "/renamed", parityInput(t, c)})
	}
	for n := 1; n <= 12; n++ {
		in = append(in, namedGrammar{fmt.Sprintf("G%d", n), datasets.Gn(n)})
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := randomUnranked(rng, 30+rng.Intn(300), []string{"a", "b", "c"}[:1+rng.Intn(3)])
		seq, err := workload.Updates(u, 10+rng.Intn(40), rng.Intn(100), seed)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
		if err := update.ApplyAll(g, seq.Ops); err != nil {
			t.Fatal(err)
		}
		in = append(in, namedGrammar{fmt.Sprintf("seed%d", seed), g})
	}
	return in
}

// encoded returns the wire encoding of g.
func encoded(t testing.TB, g *grammar.Grammar) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := grammar.Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compressOn runs Compress on the given run state and empties it after,
// as Compress does with one from its free list.
func compressOn(rs *runState, in *grammar.Grammar, opt Options) (*grammar.Grammar, *Stats) {
	g, st := rs.compress(in, opt)
	rs.release()
	return g, st
}

// TestScratchReuseMatchesFreshScratch compresses A, then B, then A again
// on one run state, for consecutive inputs A and B, and requires every
// output (grammar bytes and stats) to equal a run on fresh scratch.
func TestScratchReuseMatchesFreshScratch(t *testing.T) {
	inputs := reuseInputs(t)
	for _, opt := range []Options{{}, {NoOptimize: true}} {
		want := make([][]byte, len(inputs))
		wantSt := make([]*Stats, len(inputs))
		for i, in := range inputs {
			g, st := compressOn(newRunState(), in.g, opt)
			want[i], wantSt[i] = encoded(t, g), st
		}
		rs := newRunState()
		for i := range inputs {
			for _, j := range []int{i, (i + 1) % len(inputs), i} {
				g, st := compressOn(rs, inputs[j].g, opt)
				if !bytes.Equal(encoded(t, g), want[j]) {
					t.Fatalf("%s (NoOptimize=%v) after %s: output differs from a fresh-scratch run",
						inputs[j].name, opt.NoOptimize, inputs[i].name)
				}
				if !reflect.DeepEqual(st, wantSt[j]) {
					t.Fatalf("%s (NoOptimize=%v) after %s: stats %+v, fresh scratch %+v",
						inputs[j].name, opt.NoOptimize, inputs[i].name, st, wantSt[j])
				}
			}
		}
	}
}

// TestOutputSharesNoScratch scribbles over every node a run's index still
// tracks, empties the run state and runs other inputs on it, and requires
// the first run's output to encode as before: the output holds no node
// of the recycled scratch.
func TestOutputSharesNoScratch(t *testing.T) {
	inputs := reuseInputs(t)
	junk := xmltree.Nonterm(1 << 20)
	for _, opt := range []Options{{}, {NoOptimize: true}} {
		rs := newRunState()
		for i, in := range inputs {
			g, _ := rs.compress(in.g, opt)
			before := encoded(t, g)
			for k := range rs.ix.tab.entries {
				if n := rs.ix.tab.entries[k].self; n != nil {
					n.Label, n.Children = junk, nil
				}
			}
			for _, v := range rs.sc.versions {
				v.Label, v.Children = junk, nil
			}
			rs.release()
			compressOn(rs, inputs[(i+1)%len(inputs)].g, opt)
			compressOn(rs, in.g, opt)
			if !bytes.Equal(encoded(t, g), before) {
				t.Fatalf("%s (NoOptimize=%v): output changed when its scratch was reused", in.name, opt.NoOptimize)
			}
		}
	}
}

// warmBytesBound and warmAllocsBound cap what a warm Compress of the XM
// parity grammar may allocate: 20% of the 2.02 MB and 31% of the 19,118
// allocations of a run that built its scratch from empty (a warm run
// allocated 127 kB in 3,225 allocations, mostly its output, on
// linux/amd64 with Go 1.24).
const (
	warmBytesBound  = 400_000
	warmAllocsBound = 6_000
)

// TestWarmCompressAllocBound is the allocation guard of the recycled run
// state: after one discarded warm-up, a Compress of the XM parity grammar
// allocates its output and little else, on any number of Ps (the free
// list is shared by all of them).
func TestWarmCompressAllocBound(t *testing.T) {
	c, _ := datasets.ByShort("XM")
	in := parityInput(t, c)
	Compress(in, Options{}) // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Compress(in, Options{})
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	allocs := testing.AllocsPerRun(3, func() { Compress(in, Options{}) })
	t.Logf("warm Compress: %d bytes, %.0f allocations", bytes, allocs)
	if bytes > warmBytesBound || allocs > warmAllocsBound {
		t.Fatalf("warm Compress allocated %d bytes in %.0f allocations, bound %d bytes, %d allocations",
			bytes, allocs, warmBytesBound, warmAllocsBound)
	}
}

// TestConcurrentCompress runs Compress from 4 goroutines at once, each on
// its own inputs, and requires every output to equal its sequential run.
// Under -race it also checks that runs share no scratch.
func TestConcurrentCompress(t *testing.T) {
	inputs := reuseInputs(t)
	want := make([][]byte, len(inputs))
	for i, in := range inputs {
		g, _ := Compress(in.g, Options{})
		want[i] = encoded(t, g)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := w; i < len(inputs); i += workers {
					g, _ := Compress(inputs[i].g, Options{})
					if !bytes.Equal(encoded(t, g), want[i]) {
						errs <- fmt.Errorf("worker %d: %s differs from its sequential run", w, inputs[i].name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
