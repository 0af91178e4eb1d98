package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/xmltree"
)

// grammar1 builds the paper's "Grammar 1" (Section IV-A), wrapped in a
// start rule S → C so usages are defined:
//
//	C → A(B(⊥), ⊥)
//	A(y1,y2) → a(y1, a(B(⊥), a(⊥, y2)))
//	B(y1) → b(y1, ⊥)
func grammar1(t *testing.T) (g *grammar.Grammar, a, b int32, A, B, C int32) {
	t.Helper()
	st := xmltree.NewSymbolTable()
	a = st.InternElement("a")
	b = st.InternElement("b")
	g = grammar.New(st)
	Brule := g.NewRule(1, xmltree.New(xmltree.Term(b), xmltree.New(xmltree.Param(1)), xmltree.NewBottom()))
	Arule := g.NewRule(2, xmltree.New(xmltree.Term(a),
		xmltree.New(xmltree.Param(1)),
		xmltree.New(xmltree.Term(a),
			xmltree.New(xmltree.Nonterm(Brule.ID), xmltree.NewBottom()),
			xmltree.New(xmltree.Term(a), xmltree.NewBottom(), xmltree.New(xmltree.Param(2))))))
	Crule := g.NewRule(0, xmltree.New(xmltree.Nonterm(Arule.ID),
		xmltree.New(xmltree.Nonterm(Brule.ID), xmltree.NewBottom()),
		xmltree.NewBottom()))
	g.StartRule().RHS = xmltree.New(xmltree.Nonterm(Crule.ID))
	if err := g.Validate(); err != nil {
		t.Fatalf("grammar 1 invalid: %v", err)
	}
	return g, a, b, Arule.ID, Brule.ID, Crule.ID
}

// TestRetrieveOccsGrammar1 checks the occurrence counting of Tables I/II:
// digram (a,1,b) has two generators — (A,4) and (C,2) — and the
// overlapping equal-label occurrence at (A,6) is not recorded.
func TestRetrieveOccsGrammar1(t *testing.T) {
	g, a, b, A, B, C := grammar1(t)
	_ = B
	ix := newOccIndex(g, 4)

	dab := digram.Digram{A: a, I: 1, B: b}
	if got := ix.queue.Count(dab); got != 2 {
		t.Fatalf("count(a,1,b) = %v, want 2", got)
	}
	daa := digram.Digram{A: a, I: 2, B: a}
	if got := ix.queue.Count(daa); got != 1 {
		t.Fatalf("count(a,2,a) = %v, want 1 (overlap must be excluded)", got)
	}
	// Generators live in the expected rules.
	if len(ix.generators(A, dab)) != 1 {
		t.Fatalf("rule A should hold 1 generator of (a,1,b)")
	}
	if len(ix.generators(C, dab)) != 1 {
		t.Fatalf("rule C should hold 1 generator of (a,1,b)")
	}
	if len(ix.generators(A, daa)) != 1 {
		t.Fatalf("rule A should hold 1 generator of (a,2,a)")
	}
}

// TestResolutionAcrossRules checks TREECHILD/TREEPARENT (Algorithms 2/3)
// through nested rule and parameter boundaries.
func TestResolutionAcrossRules(t *testing.T) {
	g, a, b, A, B, C := grammar1(t)
	_, _ = A, C
	ix := newOccIndex(g, 4)
	// Root chain of B resolves to the b terminal.
	res := ix.perRule[B].root
	if res.label != b {
		t.Fatalf("rootTerm(B) = %d, want b=%d", res.label, b)
	}
	// Parent of B's parameter y1 is the b node itself at child index 1.
	pp := ix.perRule[B].params[0]
	if pp.label != b || pp.idx != 1 {
		t.Fatalf("paramParent(B,1) = (%d,%d), want (b,1)", pp.label, pp.idx)
	}
	// Parent of A's y1 is the root a at index 1; of y2 the inner a at 2.
	pp = ix.perRule[A].params[0]
	if pp.label != a || pp.idx != 1 {
		t.Fatalf("paramParent(A,1) = (%d,%d), want (a,1)", pp.label, pp.idx)
	}
	pp = ix.perRule[A].params[1]
	if pp.label != a || pp.idx != 2 {
		t.Fatalf("paramParent(A,2) = (%d,%d), want (a,2)", pp.label, pp.idx)
	}
}

// TestReplaceRoundGrammar1 replaces (a,1,b) in Grammar 1 (the concluding
// example's digram) and checks the grammar still derives the same tree
// with no occurrence of the digram left.
func TestReplaceRoundGrammar1(t *testing.T) {
	for _, optimized := range []bool{true, false} {
		g, a, b, _, _, _ := grammar1(t)
		want, err := g.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		ix := newOccIndex(g, 4)
		d := digram.Digram{A: a, I: 1, B: b}
		x := g.Syms.Fresh("X", d.Rank(g.Syms))
		r := newReplacer(g, ix, newScratch(), d, x, optimized)
		edited, _ := r.run()
		ix.refresh(edited)

		if err := g.Validate(); err != nil {
			t.Fatalf("optimized=%v: invalid after replacement: %v\n%s", optimized, err, g)
		}
		if got := ix.queue.Count(d); got != 0 {
			t.Fatalf("optimized=%v: count(a,1,b) = %v after replacement", optimized, got)
		}
		if r.replaced != 2 {
			t.Fatalf("optimized=%v: replaced %d occurrences, want 2", optimized, r.replaced)
		}
		// val must be preserved modulo the X terminal → re-expand and
		// rewrite X back: easier — expand and replace X nodes by their
		// pattern meaning. Instead we check val after full conversion in
		// TestCompressPreservesVal; here compare sizes via the digram
		// count of x occurrences: every replaced occurrence must produce
		// an x-labeled node somewhere.
		found := 0
		g.Rules(func(rule *grammar.Rule) {
			found += rule.RHS.CountLabel(xmltree.Term(x))
		})
		if found == 0 {
			t.Fatalf("optimized=%v: no X nodes produced", optimized)
		}
		_ = want
	}
}

// TestConcludingExample replays Section IV-F: replacing α = (a,1,b) on
// Grammar 1 with the optimization enabled must leave rules of the shapes
// C → X(⊥,⊥,D(⊥)), D(y) → X(⊥,⊥,a(⊥,y)), with B gone or unreferenced.
func TestConcludingExample(t *testing.T) {
	g, a, b, A, B, C := grammar1(t)
	// The paper's fragment assumes A, B, C are called elsewhere, so the
	// export condition |refs| > 1 holds for A and B. Add extra callers.
	extra := g.NewRule(0, xmltree.New(xmltree.Term(a),
		xmltree.New(xmltree.Nonterm(A),
			xmltree.New(xmltree.Nonterm(B), xmltree.NewBottom()),
			xmltree.NewBottom()),
		xmltree.New(xmltree.Nonterm(C))))
	s := g.StartRule()
	s.RHS = xmltree.New(xmltree.Term(a), xmltree.New(xmltree.Nonterm(C)), xmltree.New(xmltree.Nonterm(extra.ID)))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}

	ix := newOccIndex(g, 4)
	d := digram.Digram{A: a, I: 1, B: b}
	x := g.Syms.Fresh("X", 3)
	r := newReplacer(g, ix, newScratch(), d, x, true)
	r.run()
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, g)
	}

	// Convert x into its rule and compare val with the original.
	xr := g.NewRule(3, d.PatternRHS(g.Syms))
	ntOf := map[int32]int32{x: xr.ID}
	g.Rules(func(rule *grammar.Rule) { convertGenerated(rule.RHS, ntOf) })
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid after conversion: %v\n%s", err, g)
	}
	got, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, want) {
		t.Fatalf("val changed:\n got %s\nwant %s", got.Format(g.Syms), want.Format(g.Syms))
	}
	// Rule C must have been rewritten to X(⊥,⊥,D(⊥)) — i.e. its body is
	// a call to the X rule whose third argument is a rank-1 export rule.
	crhs := g.Rule(C).RHS
	if crhs.Label != xmltree.Nonterm(xr.ID) {
		t.Fatalf("C body should be an X call, got %s", crhs.Format(g.Syms))
	}
	third := crhs.Children[2]
	if third.Label.Kind != xmltree.Nonterminal {
		t.Fatalf("C's third argument should be an export-rule call, got %s", third.Format(g.Syms))
	}
	dRule := g.Rule(third.Label.ID)
	if dRule.Rank != 1 {
		t.Fatalf("export rule rank = %d, want 1", dRule.Rank)
	}
	// And the export rule D is X(⊥,⊥,a(⊥,y1)).
	if dRule.RHS.Label != xmltree.Nonterm(xr.ID) {
		t.Fatalf("D body should call X, got %s", dRule.RHS.Format(g.Syms))
	}
}

// compressAndCompare compresses a document with GrammarRePair applied to
// the tree and asserts val preservation.
func compressAndCompare(t *testing.T, doc *xmltree.Document, opt Options) *grammar.Grammar {
	t.Helper()
	g, st := CompressDocument(doc, opt)
	if err := g.Validate(); err != nil {
		t.Fatalf("compressed grammar invalid: %v", err)
	}
	got, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, doc.Root) {
		t.Fatalf("val(G) != input tree")
	}
	if st.FinalSize != g.Size() {
		t.Fatalf("stats FinalSize %d != %d", st.FinalSize, g.Size())
	}
	return g
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

func TestCompressTreePreservesVal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		u := randomUnranked(rng, 1+rng.Intn(80), []string{"a", "b", "c"})
		compressAndCompare(t, u.Binary(), Options{})
	}
}

func TestCompressTreeNonOptimizedPreservesVal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		u := randomUnranked(rng, 1+rng.Intn(80), []string{"a", "b", "c"})
		compressAndCompare(t, u.Binary(), Options{NoOptimize: true})
	}
}

// TestCompressGrammarPreservesVal runs GrammarRePair on grammars produced
// by TreeRePair (the paper's primary pipeline: compress, update, then
// recompress the grammar).
func TestCompressGrammarPreservesVal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		u := randomUnranked(rng, 20+rng.Intn(150), []string{"a", "b", "c", "d"})
		doc := u.Binary()
		tg, _ := treerepair.Compress(doc, treerepair.Options{})
		want, err := tg.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		g2, _ := Compress(tg, Options{})
		if err := g2.Validate(); err != nil {
			t.Fatalf("invalid: %v", err)
		}
		got, err := g2.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		if !xmltree.Equal(got, want) {
			t.Fatal("val changed by grammar recompression")
		}
	}
}

func TestCompressList(t *testing.T) {
	root := xmltree.NewUnranked("r")
	for i := 0; i < 512; i++ {
		root.Children = append(root.Children, xmltree.NewUnranked("a"))
	}
	g := compressAndCompare(t, root.Binary(), Options{})
	if g.Size() > 60 {
		t.Fatalf("512-list should compress exponentially, |G| = %d", g.Size())
	}
}

func TestCompressGrammarOnAlreadyCompressed(t *testing.T) {
	// Recompressing an exponentially compressing grammar must not blow it
	// up: the whole point of GrammarRePair.
	root := xmltree.NewUnranked("r")
	for i := 0; i < 1024; i++ {
		root.Children = append(root.Children, xmltree.NewUnranked("a"))
	}
	doc := root.Binary()
	g1, _ := CompressDocument(doc, Options{})
	g2, st := Compress(g1, Options{})
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.Size() > g1.Size()+4 {
		t.Fatalf("recompression grew the grammar: %d -> %d", g1.Size(), g2.Size())
	}
	if st.MaxIntermediate > 3*g1.Size()+20 {
		t.Fatalf("blow-up too large: max %d vs input %d", st.MaxIntermediate, g1.Size())
	}
	n1, _ := g1.ValNodeCount()
	n2, _ := g2.ValNodeCount()
	if n1 != n2 {
		t.Fatalf("val size changed: %d -> %d", n1, n2)
	}
}

func TestPropertyCompressGrammar(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + int(size)%150
		u := randomUnranked(rng, n, []string{"a", "b", "c"})
		doc := u.Binary()
		tg, _ := treerepair.Compress(doc, treerepair.Options{})
		g2, _ := Compress(tg, Options{})
		if g2.Validate() != nil {
			return false
		}
		got, err := g2.Expand(0)
		if err != nil {
			return false
		}
		return xmltree.Equal(got, doc.Root)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFlagSet(t *testing.T) {
	f := &flagSet{}
	f.addY(3)
	f.addY(1)
	f.addY(3)
	f.r = true
	if key := string(f.appendKey(nil)); key != "r,y1,y3" {
		t.Fatalf("key = %q", key)
	}
	if len(f.ys) != 2 {
		t.Fatalf("duplicate y added: %v", f.ys)
	}
	g := &flagSet{}
	if key := string(g.appendKey(nil)); key != "" {
		t.Fatalf("empty key = %q", key)
	}
}

func TestStatsSizes(t *testing.T) {
	root := xmltree.NewUnranked("r")
	for i := 0; i < 64; i++ {
		root.Children = append(root.Children, xmltree.NewUnranked("a"))
	}
	_, st := CompressDocument(root.Binary(), Options{})
	if st.Rounds != len(st.Sizes) || st.Rounds == 0 {
		t.Fatalf("rounds %d, sizes %d", st.Rounds, len(st.Sizes))
	}
	max := 0
	for _, s := range st.Sizes {
		if s > max {
			max = s
		}
	}
	if max != st.MaxIntermediate {
		t.Fatalf("MaxIntermediate mismatch: %d vs %d", st.MaxIntermediate, max)
	}
}
