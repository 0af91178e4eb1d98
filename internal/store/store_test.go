package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/navigate"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// sameLabeledTree compares two trees whose labels live in different
// symbol tables by comparing label names.
func sameLabeledTree(stA *xmltree.SymbolTable, a *xmltree.Node, stB *xmltree.SymbolTable, b *xmltree.Node) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Label.Kind != xmltree.Terminal || b.Label.Kind != xmltree.Terminal {
		return false
	}
	if stA.Name(a.Label.ID) != stB.Name(b.Label.ID) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameLabeledTree(stA, a.Children[i], stB, b.Children[i]) {
			return false
		}
	}
	return true
}

func mustTree(t *testing.T, g *grammar.Grammar) *xmltree.Node {
	t.Helper()
	tree, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestDifferentialStream is the differential stream test of the Store:
// a workload.Updates sequence replays through (a) the Store, (b) the
// per-op update.Apply path with fresh size vectors, and (c) the plain
// update.ApplyTree ground truth, asserting identical documents after
// every batch boundary.
func TestDifferentialStream(t *testing.T) {
	c, ok := datasets.ByShort("XM")
	if !ok {
		t.Fatal("no XM corpus")
	}
	u := c.Generate(0.03, 5)
	seq, err := workload.Updates(u, 240, 90, 23)
	if err != nil {
		t.Fatal(err)
	}

	g0, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
	// Auto-recompression on for the Store: the differential property must
	// hold across recompression boundaries too.
	st := New(g0.Clone(), Config{Ratio: 1.3, MinSize: 16})
	gPerOp := g0.Clone()
	ref := seq.Seed.Root.Copy()
	refSyms := seq.Seed.Syms.Clone()

	const batch = 40
	for done := 0; done < len(seq.Ops); done += batch {
		end := done + batch
		if end > len(seq.Ops) {
			end = len(seq.Ops)
		}
		ops := seq.Ops[done:end]
		if err := st.ApplyAll(ops); err != nil {
			t.Fatalf("store batch at %d: %v", done, err)
		}
		for i, op := range ops {
			if err := update.Apply(gPerOp, op); err != nil {
				t.Fatalf("per-op %d: %v", done+i, err)
			}
			ref, err = update.ApplyTree(refSyms, ref, op)
			if err != nil {
				t.Fatalf("tree op %d: %v", done+i, err)
			}
		}

		snap := st.Snapshot()
		if err := snap.Validate(); err != nil {
			t.Fatalf("invalid store grammar after %d ops: %v", end, err)
		}
		got := mustTree(t, snap)
		if !sameLabeledTree(snap.Syms, got, refSyms, ref) {
			t.Fatalf("store diverged from tree ground truth after %d ops", end)
		}
		perOp := mustTree(t, gPerOp)
		if !sameLabeledTree(gPerOp.Syms, perOp, refSyms, ref) {
			t.Fatalf("per-op path diverged from tree ground truth after %d ops", end)
		}
	}

	// The workload must land exactly on the corpus document.
	snap := st.Snapshot()
	got := mustTree(t, snap)
	if !sameLabeledTree(snap.Syms, got, seq.Final.Syms, seq.Final.Root) {
		t.Fatal("store did not converge to the final document")
	}

	stats := st.Stats()
	if stats.Ops != int64(len(seq.Ops)) {
		t.Fatalf("stats.Ops = %d, want %d", stats.Ops, len(seq.Ops))
	}
	if stats.SizeCacheHits == 0 {
		t.Fatal("size-vector cache never hit across batched ops")
	}
	// One cold miss per grammar generation (initial + per recompression).
	if want := stats.Recompressions + 1; stats.SizeCacheMisses > want {
		t.Fatalf("cache misses %d exceed grammar generations %d", stats.SizeCacheMisses, want)
	}
}

// TestRootEdgeCases covers the document-boundary operations: delete at
// preorder 0 (the root) and insert at the final ⊥ (append past the last
// element).
func TestRootEdgeCases(t *testing.T) {
	mk := func() (*Store, *xmltree.Document) {
		u := xmltree.NewUnranked("log",
			xmltree.NewUnranked("a"), xmltree.NewUnranked("b"))
		doc := u.Binary()
		g, _ := treerepair.Compress(doc, treerepair.Options{})
		return New(g, Config{Ratio: -1}), doc
	}

	// Insert at the final ⊥: the last node in preorder.
	st, doc := mk()
	n, err := st.TreeSize()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(update.Op{Kind: update.Insert, Pos: n - 1,
		Frag: xmltree.NewUnranked("tail")}); err != nil {
		t.Fatalf("append at final ⊥: %v", err)
	}
	ref, err := update.ApplyTree(doc.Syms, doc.Root.Copy(), update.Op{
		Kind: update.Insert, Pos: n - 1, Frag: xmltree.NewUnranked("tail")})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if !sameLabeledTree(snap.Syms, mustTree(t, snap), doc.Syms, ref) {
		t.Fatal("append at final ⊥ diverged")
	}

	// Delete at preorder 0: the document degenerates to a single ⊥.
	st, _ = mk()
	if err := st.Apply(update.Op{Kind: update.Delete, Pos: 0}); err != nil {
		t.Fatalf("delete at root: %v", err)
	}
	if n, err := st.TreeSize(); err != nil || n != 1 {
		t.Fatalf("after root delete: tree size %d (%v), want 1", n, err)
	}
	if el, err := st.Elements(); err != nil || el != 0 {
		t.Fatalf("after root delete: %d elements (%v), want 0", el, err)
	}
}

// TestAutoRecompression: an append-heavy stream must trip the ratio
// trigger and keep the live grammar near the recompressed optimum.
func TestAutoRecompression(t *testing.T) {
	root := xmltree.NewUnranked("log")
	for i := 0; i < 64; i++ {
		root.Children = append(root.Children, xmltree.NewUnranked("rec"))
	}
	doc := root.Binary()
	g, _ := treerepair.Compress(doc, treerepair.Options{})
	st := New(g, Config{Ratio: 1.5, MinSize: 8})

	for i := 0; i < 256; i++ {
		n, err := st.TreeSize()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(update.Op{Kind: update.Insert, Pos: n - 1,
			Frag: xmltree.NewUnranked("rec")}); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Recompressions == 0 {
		t.Fatal("policy never recompressed an append-heavy stream")
	}
	if el, err := st.Elements(); err != nil || el != 64+256+1 {
		t.Fatalf("element count %d (%v), want %d", el, err, 64+256+1)
	}
	// The live grammar must track the policy's own bound.
	if float64(stats.Size) > stats.EffectiveRatio*float64(stats.LastCompressedSize) {
		t.Fatalf("|G|=%d beyond ratio %.2f × last=%d",
			stats.Size, stats.EffectiveRatio, stats.LastCompressedSize)
	}
	if stats.PeakSize < stats.Size {
		t.Fatal("peak below current size")
	}
}

// TestPolicyBackoff: recompressing an incompressible document must back
// the effective trigger ratio off instead of recompressing in a loop.
func TestPolicyBackoff(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := &xmltree.Unranked{Label: "r"}
	for i := 0; i < 40; i++ {
		u.Children = append(u.Children, xmltree.NewUnranked(fmt.Sprintf("u%d%d", i, rng.Intn(10))))
	}
	g, _ := treerepair.Compress(u.Binary(), treerepair.Options{})
	st := New(g, Config{Ratio: 1.01, MinSize: 1, MaxRatio: 8})

	// Rename churn with fresh labels keeps the document incompressible.
	for i := 0; i < 120; i++ {
		if err := st.Apply(update.Op{Kind: update.Rename, Pos: 1,
			Label: fmt.Sprintf("x%d", i)}); err != nil {
			t.Fatal(err)
		}
		n, _ := st.TreeSize()
		if err := st.Apply(update.Op{Kind: update.Insert, Pos: n - 1,
			Frag: xmltree.NewUnranked(fmt.Sprintf("y%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Recompressions == 0 {
		t.Skip("grammar never crossed the trigger")
	}
	if stats.EffectiveRatio <= 1.01 {
		t.Fatalf("effective ratio %.3f never backed off", stats.EffectiveRatio)
	}
}

// TestSaturationSentinel: on an exponentially compressing grammar the
// element count must fail with grammar.ErrSaturated, and Stats must
// report Saturated instead of a bogus count.
func TestSaturationSentinel(t *testing.T) {
	// S → D_0, D_i → f(D_{i+1}, D_{i+1}) doubles 70 times: 2^70 nodes.
	syms := xmltree.NewSymbolTable()
	f := syms.InternElement("f")
	g := grammar.New(syms)
	prev := g.NewRule(0, xmltree.New(xmltree.Term(f), xmltree.NewBottom(), xmltree.NewBottom()))
	for i := 0; i < 70; i++ {
		prev = g.NewRule(0, xmltree.New(xmltree.Term(f),
			xmltree.New(xmltree.Nonterm(prev.ID)),
			xmltree.New(xmltree.Nonterm(prev.ID))))
	}
	g.StartRule().RHS = xmltree.New(xmltree.Nonterm(prev.ID))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	st := New(g, Config{Ratio: -1})
	if _, err := st.Elements(); !errors.Is(err, grammar.ErrSaturated) {
		t.Fatalf("Elements error = %v, want ErrSaturated", err)
	}
	stats := st.Stats()
	if !stats.Saturated || stats.Elements != 0 {
		t.Fatalf("Stats = {Saturated:%v Elements:%d}, want saturated/0",
			stats.Saturated, stats.Elements)
	}
}

// TestConcurrentReaders hammers the Store with one writer and many
// aggregate readers; run under -race this is the regression test for the
// RWMutex discipline.
func TestConcurrentReaders(t *testing.T) {
	c, _ := datasets.ByShort("XM")
	u := c.Generate(0.02, 9)
	seq, err := workload.Updates(u, 150, 90, 41)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
	st := New(g, Config{Ratio: 1.3, MinSize: 16})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 4 {
				case 0:
					if _, err := st.CountLabel("item"); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := st.LabelHistogram(); err != nil {
						t.Error(err)
						return
					}
				case 2:
					_ = st.Stats()
					_, _ = st.TreeSize()
				case 3:
					cur, err := st.Cursor()
					if err != nil {
						t.Error(err)
						return
					}
					for cur.FirstChild() == nil {
					}
				}
			}
		}(r)
	}

	const batch = 10
	for done := 0; done < len(seq.Ops); done += batch {
		end := done + batch
		if end > len(seq.Ops) {
			end = len(seq.Ops)
		}
		if err := st.ApplyAll(seq.Ops[done:end]); err != nil {
			t.Fatalf("batch at %d: %v", done, err)
		}
	}
	close(stop)
	wg.Wait()

	snap := st.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	got := mustTree(t, snap)
	if !sameLabeledTree(snap.Syms, got, seq.Final.Syms, seq.Final.Root) {
		t.Fatal("store diverged under concurrent reads")
	}
}

// TestSnapshotInvalidationSafety: a snapshot taken before updates and
// recompressions must keep deriving the old document.
func TestSnapshotInvalidationSafety(t *testing.T) {
	u := xmltree.NewUnranked("r", xmltree.NewUnranked("a"), xmltree.NewUnranked("b"))
	doc := u.Binary()
	g, _ := treerepair.Compress(doc, treerepair.Options{})
	st := New(g, Config{Ratio: -1})

	snap := st.Snapshot()
	before := mustTree(t, snap)

	if err := st.Apply(update.Op{Kind: update.Rename, Pos: 1, Label: "zz"}); err != nil {
		t.Fatal(err)
	}
	st.Recompress()

	after := mustTree(t, snap)
	if !xmltree.Equal(before, after) {
		t.Fatal("snapshot changed under later updates")
	}
	live := st.Snapshot()
	if sameLabeledTree(live.Syms, mustTree(t, live), snap.Syms, before) {
		t.Fatal("live store did not change")
	}
}

// TestUsageCache: repeated label queries must be served from one cached
// usage vector, updates and recompressions must invalidate it, and the
// cached answers must always match a cold navigate.CountLabel pass.
func TestUsageCache(t *testing.T) {
	c, _ := datasets.ByShort("XM")
	u := c.Generate(0.02, 5)
	seq, err := workload.Updates(u, 40, 90, 13)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
	st := New(g, Config{Ratio: -1})

	check := func(when string) {
		for _, label := range []string{"item", "listitem", "nosuchlabel"} {
			got, err := st.CountLabel(label)
			if err != nil {
				t.Fatalf("%s: CountLabel(%s): %v", when, label, err)
			}
			var want float64
			if err := st.Query(func(g *grammar.Grammar) error {
				w, err := navigate.CountLabel(g, label)
				want = w
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: CountLabel(%s) cached %v, cold %v", when, label, got, want)
			}
		}
	}

	check("fresh")
	s0 := st.Stats()
	if s0.UsageCacheMisses != 1 || s0.UsageCacheHits < 2 {
		t.Fatalf("fresh: usage cache hits=%d misses=%d, want >=2/1",
			s0.UsageCacheHits, s0.UsageCacheMisses)
	}

	if err := st.ApplyAll(seq.Ops); err != nil {
		t.Fatal(err)
	}
	check("after updates")
	s1 := st.Stats()
	if s1.UsageCacheMisses != 2 {
		t.Fatalf("updates must invalidate the usage cache (misses=%d, want 2)", s1.UsageCacheMisses)
	}

	st.Recompress()
	check("after recompression")
	if s2 := st.Stats(); s2.UsageCacheMisses != 3 {
		t.Fatalf("recompression must invalidate the usage cache (misses=%d, want 3)", s2.UsageCacheMisses)
	}
}

// TestCountersAddCoversEveryField fills every Counters field with a
// distinct value and requires two adds onto a zero value to double each
// one, so a counter added to Counters cannot be dropped from (or
// assigned instead of summed into) the fleet totals. The deprecated
// fields, kept only for the benchmark that still reads them, must stay
// 0: nothing writes them.
func TestCountersAddCoversEveryField(t *testing.T) {
	deprecated := map[string]bool{
		"CostRecompressions":     true,
		"DeferredRecompressions": true,
		"Refolds":                true,
		"RefoldedNodes":          true,
	}
	var in Counters
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		if k := v.Field(i).Kind(); k != reflect.Int64 {
			t.Fatalf("Counters.%s is %s; add and this test assume int64", v.Type().Field(i).Name, k)
		}
		v.Field(i).SetInt(int64(i + 1))
	}
	var got Counters
	got.add(in)
	got.add(in)
	g := reflect.ValueOf(got)
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		want := 2 * int64(i+1)
		if deprecated[name] {
			want = 0
		}
		if g.Field(i).Int() != want {
			t.Errorf("Counters.%s = %d after two adds, want %d", name, g.Field(i).Int(), want)
		}
	}
}
