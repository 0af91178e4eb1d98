package treerepair

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// expandAndCompare asserts val(g) equals the original tree.
func expandAndCompare(t *testing.T, g *grammar.Grammar, want *xmltree.Node) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("compressed grammar invalid: %v", err)
	}
	got, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, want) {
		t.Fatalf("val(G) != input:\n got %s\nwant %s", got, want)
	}
}

func list(label string, n int) *xmltree.Unranked {
	root := xmltree.NewUnranked("root")
	for i := 0; i < n; i++ {
		root.Children = append(root.Children, xmltree.NewUnranked(label))
	}
	return root
}

func TestCompressLongList(t *testing.T) {
	// A list of 1024 identical children must compress exponentially:
	// grammar size O(log n) ≪ n.
	doc := list("a", 1024).Binary()
	g, st := Compress(doc, Options{})
	if g.Size() > 60 {
		t.Fatalf("list of 1024 should compress to O(log n) edges, got %d", g.Size())
	}
	if st.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	expandAndCompare(t, g, doc.Root)
}

func TestCompressPreservesVal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 40; trial++ {
		u := randomUnranked(rng, 1+rng.Intn(120), labels)
		doc := u.Binary()
		g, _ := Compress(doc, Options{})
		expandAndCompare(t, g, doc.Root)
	}
}

func randomUnranked(rng *rand.Rand, n int, labels []string) *xmltree.Unranked {
	root := &xmltree.Unranked{Label: labels[rng.Intn(len(labels))]}
	nodes := []*xmltree.Unranked{root}
	for i := 1; i < n; i++ {
		p := nodes[rng.Intn(len(nodes))]
		c := &xmltree.Unranked{Label: labels[rng.Intn(len(labels))]}
		p.Children = append(p.Children, c)
		nodes = append(nodes, c)
	}
	return root
}

func TestCompressRegularRecords(t *testing.T) {
	// A weblog-like file: root with n identical records, each with 4 fields.
	root := xmltree.NewUnranked("log")
	for i := 0; i < 500; i++ {
		root.Children = append(root.Children, xmltree.NewUnranked("entry",
			xmltree.NewUnranked("host"), xmltree.NewUnranked("time"),
			xmltree.NewUnranked("req"), xmltree.NewUnranked("status")))
	}
	doc := root.Binary()
	g, _ := Compress(doc, Options{})
	if ratio := float64(g.Size()) / float64(root.Edges()); ratio > 0.02 {
		t.Fatalf("regular records should compress below 2%%, got %.4f (size %d / %d)",
			ratio, g.Size(), root.Edges())
	}
	expandAndCompare(t, g, doc.Root)
}

func TestCompressIncompressible(t *testing.T) {
	// Every node gets a unique label: nothing repeats, so no digram has
	// two occurrences and the output is (close to) the input.
	root := xmltree.NewUnranked("r0")
	cur := root
	for i := 1; i < 30; i++ {
		c := xmltree.NewUnranked(labelN(i))
		cur.Children = append(cur.Children, c)
		cur = c
	}
	doc := root.Binary()
	g, st := Compress(doc, Options{})
	expandAndCompare(t, g, doc.Root)
	if st.Rounds > 2 {
		// (⊥,⊥)-padding digrams like (x,1,⊥) never repeat here since all
		// labels are distinct.
		t.Fatalf("unique-label chain should need ~0 rounds, got %d", st.Rounds)
	}
}

func labelN(i int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	s := ""
	for {
		s = string(alpha[i%26]) + s
		i /= 26
		if i == 0 {
			return "u" + s
		}
	}
}

func TestStatsMonotoneAndConsistent(t *testing.T) {
	doc := list("a", 256).Binary()
	g, st := Compress(doc, Options{})
	if st.InputEdges != doc.Root.Edges() {
		t.Fatalf("InputEdges = %d, want %d", st.InputEdges, doc.Root.Edges())
	}
	if len(st.Sizes) != st.Rounds {
		t.Fatalf("Sizes len %d != Rounds %d", len(st.Sizes), st.Rounds)
	}
	max := 0
	for _, s := range st.Sizes {
		if s > max {
			max = s
		}
	}
	if max != st.MaxIntermediate {
		t.Fatalf("MaxIntermediate %d != max(Sizes) %d", st.MaxIntermediate, max)
	}
	if st.FinalSize != g.Size() {
		t.Fatalf("FinalSize %d != grammar size %d", st.FinalSize, g.Size())
	}
}

func TestMaxRankLimitsDigramRank(t *testing.T) {
	// With MaxRank 1 only digrams with rank(a)+rank(b)-1 ≤ 1 are replaced
	// (e.g. element+⊥ pairs); the grammar stays valid regardless.
	doc := list("a", 64).Binary()
	g, _ := Compress(doc, Options{MaxRank: 1})
	expandAndCompare(t, g, doc.Root)
	g.Rules(func(r *grammar.Rule) {
		if r.Rank > 1 {
			t.Fatalf("rule N%d has rank %d > MaxRank 1", r.ID, r.Rank)
		}
	})
}

func TestCompressDoesNotMutateInput(t *testing.T) {
	doc := list("a", 50).Binary()
	before := doc.Root.Copy()
	symsBefore := doc.Syms.Len()
	Compress(doc, Options{})
	if !xmltree.Equal(doc.Root, before) {
		t.Fatal("input tree was mutated")
	}
	if doc.Syms.Len() != symsBefore {
		t.Fatal("input symbol table was mutated")
	}
}

func TestPropertyValPreservation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%200
		u := randomUnranked(rng, n, []string{"a", "b", "c", "d", "e"})
		doc := u.Binary()
		g, _ := Compress(doc, Options{})
		if g.Validate() != nil {
			return false
		}
		got, err := g.Expand(0)
		if err != nil {
			return false
		}
		return xmltree.Equal(got, doc.Root)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompressedNotLarger(t *testing.T) {
	// Pruning guarantees the grammar is never larger than the input tree
	// plus a small constant (rules with sav<0 are inlined away).
	cfg := &quick.Config{MaxCount: 20}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randomUnranked(rng, 150, []string{"a", "b"})
		doc := u.Binary()
		g, _ := Compress(doc, Options{})
		return g.Size() <= doc.Root.Edges()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestIntrusiveOccBookkeeping checks add/remove/stored behaviour of the
// intrusive occurrence positions (the replacement for the old occSet
// position map) on a(b, b, a(b, b, b)): digram (a,1,b) occurs twice
// (parents: root and the inner a).
func TestIntrusiveOccBookkeeping(t *testing.T) {
	st := xmltree.NewSymbolTable()
	a := st.Intern("a", 3)
	b := st.Intern("b", 0)
	tree := xmltree.New(xmltree.Term(a),
		xmltree.New(xmltree.Term(b)),
		xmltree.New(xmltree.Term(b)),
		xmltree.New(xmltree.Term(a),
			xmltree.New(xmltree.Term(b)),
			xmltree.New(xmltree.Term(b)),
			xmltree.New(xmltree.Term(b))))
	e := new(engine)
	e.init(st.Clone(), tree, 4)

	d := digram.Digram{A: a, I: 1, B: b}
	if got := e.queue.Count(d); got != 2 {
		t.Fatalf("queue.Count(%v) = %v, want 2", d, got)
	}
	root := e.at(e.root)
	if !e.stored(root, d) {
		t.Fatal("root must be a stored parent of (a,1,b)")
	}
	inner := e.child(root, 2)
	if !e.stored(e.at(inner), d) {
		t.Fatal("inner a must be a stored parent of (a,1,b)")
	}
	// Double-add must be a no-op.
	churn := e.churn
	e.tryAdd(e.root, d)
	if e.churn != churn || e.queue.Count(d) != 2 {
		t.Fatal("duplicate add must not change state")
	}
	// Remove root's occurrence; the swapped-in survivor keeps a correct
	// intrusive position.
	e.removeOcc(e.root, d)
	if e.stored(root, d) {
		t.Fatal("root still stored after remove")
	}
	if e.queue.Count(d) != 1 || !e.stored(e.at(inner), d) {
		t.Fatal("survivor lost after swap-delete")
	}
	e.removeOcc(e.root, d) // second remove is a no-op
	if e.queue.Count(d) != 1 {
		t.Fatal("double remove changed state")
	}
}

func BenchmarkCompressList4096(b *testing.B) {
	doc := list("a", 4096).Binary()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(doc, Options{})
	}
}
