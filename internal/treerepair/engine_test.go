package treerepair

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// checkEngine verifies the engine's bookkeeping between rounds:
//   - the working tree's parent and child links agree and it has
//     nodeCount nodes;
//   - every stored occurrence is of a tracked (rank ≤ k_in) digram and
//     sits in its slot's list at its recorded position;
//   - no equal-label occurrence overlaps another stored one;
//   - every list holds exactly the stored occurrences of its digram, and
//     the queue counts each digram by its list length.
func checkEngine(e *engine) error {
	perSlot := map[int32]int{}
	digramOf := map[int32]digram.Digram{}
	nodes := 0
	var walk func(vid, parent, idx int32) error
	walk = func(vid, parent, idx int32) error {
		nodes++
		v := e.at(vid)
		if v.parent != parent || (parent != nilNode && v.idx != idx) {
			return fmt.Errorf("node %d: parent %d idx %d, reached from %d at %d", vid, v.parent, v.idx, parent, idx)
		}
		for i := 0; i < int(v.n); i++ {
			c := e.child(v, i)
			if err := walk(c, vid, int32(i)); err != nil {
				return err
			}
			pos := e.slab[occAt(v, i)]
			if pos < 0 {
				continue
			}
			d := digram.Digram{A: v.label, I: i + 1, B: e.at(c).label}
			if !e.tracked(d) {
				return fmt.Errorf("node %d stores over-rank digram %v", vid, d)
			}
			id := e.queue.Slot(d.Key())
			if int(id) >= len(e.occs) || int(pos) >= len(e.occs[id]) || e.occs[id][pos] != vid {
				return fmt.Errorf("node %d: occurrence of %v not at position %d of its list", vid, d, pos)
			}
			perSlot[id]++
			digramOf[id] = d
			if d.EqualLabels() {
				if e.stored(e.at(c), d) {
					return fmt.Errorf("node %d: overlapping occurrences of %v (child %d stored too)", vid, d, c)
				}
			}
		}
		return nil
	}
	if err := walk(e.root, nilNode, 0); err != nil {
		return err
	}
	if nodes != e.nodeCount {
		return fmt.Errorf("tree has %d nodes, nodeCount %d", nodes, e.nodeCount)
	}
	live := 0
	for id, lst := range e.occs {
		if len(lst) != perSlot[int32(id)] {
			return fmt.Errorf("slot %d lists %d occurrences, the tree stores %d", id, len(lst), perSlot[int32(id)])
		}
		if len(lst) == 0 {
			continue
		}
		live++
		d := digramOf[int32(id)]
		if got := e.queue.Count(d); got != float64(len(lst)) {
			return fmt.Errorf("queue counts %v at %v, its list holds %d", d, got, len(lst))
		}
	}
	if got := e.queue.Len(); got != live {
		return fmt.Errorf("queue holds %d digrams, %d lists are non-empty", got, live)
	}
	return nil
}

// runChecked compresses root round by round on a fresh engine, checking
// the engine after the occurrence build and after every round, and
// returns the unpruned grammar.
func runChecked(st *xmltree.SymbolTable, root *xmltree.Node, maxRank int) (*grammar.Grammar, error) {
	e := new(engine)
	e.init(st.Clone(), root, maxRank)
	if err := checkEngine(e); err != nil {
		return nil, fmt.Errorf("after build: %w", err)
	}
	for e.round() {
		if err := checkEngine(e); err != nil {
			return nil, fmt.Errorf("after round %d: %w", e.stats.Rounds, err)
		}
	}
	return e.toGrammar(), nil
}

// TestEngineInvariantsEveryRound runs the engine on random trees, with
// several k_in values, and checks its bookkeeping after every round;
// the unpruned grammar must derive the input.
func TestEngineInvariantsEveryRound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		labels := []string{"a", "b", "c", "d"}[:1+rng.Intn(4)]
		doc := randomUnranked(rng, 1+rng.Intn(250), labels).Binary()
		maxRank := 1 + rng.Intn(4)
		g, err := runChecked(doc.Syms, doc.Root, maxRank)
		if err != nil {
			t.Fatalf("trial %d (k_in %d): %v", trial, maxRank, err)
		}
		expandAndCompare(t, g, doc.Root)
	}
}

// reuseDocs returns the inputs of the reuse tests: the parity corpora
// (scale 0.05, the parity seed) and seeded random documents.
func reuseDocs(t testing.TB) []*xmltree.Document {
	t.Helper()
	var docs []*xmltree.Document
	for _, c := range datasets.Corpora() {
		docs = append(docs, c.Generate(0.05, 20160516).Binary())
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		labels := []string{"a", "b", "c"}[:1+rng.Intn(3)]
		docs = append(docs, randomUnranked(rng, 20+rng.Intn(400), labels).Binary())
	}
	return docs
}

func encoded(t testing.TB, g *grammar.Grammar) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := grammar.Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compressOn runs CompressTree on engine e.
func compressOn(e *engine, doc *xmltree.Document, opt Options) (*grammar.Grammar, *Stats) {
	g, st := e.run(doc.Syms, doc.Root, opt)
	prune(g, st, doc.Syms.Len())
	return g, st
}

// TestEngineReuseMatchesFreshEngine compresses A, then B, then A again
// on one engine, for consecutive inputs A and B, and requires every
// output (grammar bytes and stats) to equal a run on a fresh engine.
func TestEngineReuseMatchesFreshEngine(t *testing.T) {
	docs := reuseDocs(t)
	for _, opt := range []Options{{}, {MaxRank: 2}} {
		want := make([][]byte, len(docs))
		wantSt := make([]*Stats, len(docs))
		for i, doc := range docs {
			g, st := compressOn(new(engine), doc, opt)
			want[i], wantSt[i] = encoded(t, g), st
		}
		e := new(engine)
		for i := range docs {
			for _, j := range []int{i, (i + 1) % len(docs), i} {
				g, st := compressOn(e, docs[j], opt)
				if !bytes.Equal(encoded(t, g), want[j]) {
					t.Fatalf("input %d (k_in %d) after input %d: output differs from a fresh-engine run", j, opt.maxRank(), i)
				}
				if !reflect.DeepEqual(st, wantSt[j]) {
					t.Fatalf("input %d (k_in %d) after input %d: stats %+v, fresh engine %+v", j, opt.maxRank(), i, st, wantSt[j])
				}
			}
		}
	}
}

// TestOutputSharesNoEngineState scribbles over the whole capacity of a
// finished run's node arena and slab, runs other inputs on the engine,
// and requires the first run's output to encode as before.
func TestOutputSharesNoEngineState(t *testing.T) {
	docs := reuseDocs(t)
	e := new(engine)
	for i, doc := range docs {
		g, _ := compressOn(e, doc, Options{})
		before := encoded(t, g)
		nodes := e.nodes[:cap(e.nodes)]
		for k := range nodes {
			nodes[k] = tnode{label: 1 << 20, parent: -7, n: 3, off: -1}
		}
		slab := e.slab[:cap(e.slab)]
		for k := range slab {
			slab[k] = -1 << 30
		}
		compressOn(e, docs[(i+1)%len(docs)], Options{})
		compressOn(e, doc, Options{})
		if !bytes.Equal(encoded(t, g), before) {
			t.Fatalf("input %d: output changed when its engine was reused", i)
		}
	}
}

// warmBytesBound and warmAllocsBound cap what a warm CompressTree of the
// XM parity document may allocate: 17% of the 2.42 MB and 38% of the
// 15,636 allocations of a run that built its working tree from empty (a
// warm run allocated 111 kB in 2,414 allocations, its output grammar and
// stats, on linux/amd64 with Go 1.24).
const (
	warmBytesBound  = 400_000
	warmAllocsBound = 6_000
)

// TestWarmCompressAllocBound is the allocation guard of the recycled
// engine: after one discarded warm-up, a CompressTree of the XM parity
// document allocates its output and little else.
func TestWarmCompressAllocBound(t *testing.T) {
	c, _ := datasets.ByShort("XM")
	doc := c.Generate(0.05, 20160516).Binary()
	Compress(doc, Options{}) // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Compress(doc, Options{})
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	allocs := testing.AllocsPerRun(3, func() { Compress(doc, Options{}) })
	t.Logf("warm Compress: %d bytes, %.0f allocations", bytes, allocs)
	if bytes > warmBytesBound || allocs > warmAllocsBound {
		t.Fatalf("warm Compress allocated %d bytes in %.0f allocations, bound %d bytes, %d allocations",
			bytes, allocs, warmBytesBound, warmAllocsBound)
	}
}

// fuzzTree builds a ranked tree over the labels of st from data: each
// byte in preorder picks the next node's label; once data runs out,
// every open child is a leaf. maxNodes bounds the tree.
func fuzzTree(st *xmltree.SymbolTable, labels []int32, data []byte, maxNodes int) *xmltree.Node {
	pos, nodes := 0, 0
	var build func() *xmltree.Node
	build = func() *xmltree.Node {
		nodes++
		var lbl int32
		if pos < len(data) && nodes < maxNodes {
			lbl = labels[int(data[pos])%len(labels)]
			pos++
		} else {
			lbl = labels[0] // rank 0
		}
		n := xmltree.New(xmltree.Term(lbl))
		if r := st.Rank(lbl); r > 0 {
			n.Children = make([]*xmltree.Node, r)
			for i := range n.Children {
				n.Children[i] = build()
			}
		}
		return n
	}
	return build()
}

// FuzzTreeRePair builds a small ranked tree from the fuzz bytes (the
// first byte picks k_in), checks the engine's bookkeeping after every
// round, and requires the compressed grammar to derive the tree.
func FuzzTreeRePair(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{1, 3, 1, 4, 3, 1, 4, 3, 1, 4, 3, 1, 4, 0, 5})
	f.Add([]byte{2, 5, 5, 5, 1, 1, 5, 5, 5, 1, 1, 2, 2, 2, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		st := xmltree.NewSymbolTable()
		labels := []int32{
			st.Intern("a", 0), st.Intern("b", 1), st.Intern("c", 2),
			st.Intern("d", 3), st.Intern("e", 2), st.Intern("f", 1),
		}
		maxRank := 1 + int(data[0])%4
		root := fuzzTree(st, labels, data[1:], 1000)
		g, err := runChecked(st, root, maxRank)
		if err != nil {
			t.Fatal(err)
		}
		expandAndCompare(t, g, root)
		g, _ = CompressTree(st, root, Options{MaxRank: maxRank})
		expandAndCompare(t, g, root)
	})
}

// TestConcurrentCompressTree runs CompressTree from 4 goroutines at once,
// each on its own inputs, and requires every output to equal its
// sequential run. Under -race it also checks that runs share no engine.
func TestConcurrentCompressTree(t *testing.T) {
	docs := reuseDocs(t)
	want := make([][]byte, len(docs))
	for i, doc := range docs {
		g, _ := Compress(doc, Options{})
		want[i] = encoded(t, g)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i := w; i < len(docs); i += workers {
					var buf bytes.Buffer
					g, _ := Compress(docs[i], Options{})
					if err := grammar.Encode(&buf, g); err != nil || !bytes.Equal(buf.Bytes(), want[i]) {
						t.Errorf("worker %d: input %d differs from its sequential run (%v)", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
