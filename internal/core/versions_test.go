package core

import (
	"testing"

	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// grammar2 builds the Section IV-E example ("Grammar 2"):
//
//	C → A(⊥, A(A(B,⊥), A(B, A(⊥,⊥))))
//	A(y1,y2) → b(a(y1, c(d(a(y2,⊥),⊥),⊥)),⊥)
//	B → b(⊥,⊥)
//
// with A and C (but not B) called elsewhere. The digram α = (a,1,b) has
// six occurrence generators in C, and replacing it requires four
// different versions of A (A^r, A^y2, A^{r,y1}, A^{r,y1,y2}).
func grammar2(t *testing.T) (*grammar.Grammar, int32, int32) {
	t.Helper()
	st := xmltree.NewSymbolTable()
	a := st.InternElement("a")
	b := st.InternElement("b")
	c := st.InternElement("c")
	d := st.InternElement("d")
	g := grammar.New(st)
	B := g.NewRule(0, xmltree.New(xmltree.Term(b), xmltree.NewBottom(), xmltree.NewBottom()))
	A := g.NewRule(2, xmltree.New(xmltree.Term(b),
		xmltree.New(xmltree.Term(a),
			xmltree.New(xmltree.Param(1)),
			xmltree.New(xmltree.Term(c),
				xmltree.New(xmltree.Term(d),
					xmltree.New(xmltree.Term(a), xmltree.New(xmltree.Param(2)), xmltree.NewBottom()),
					xmltree.NewBottom()),
				xmltree.NewBottom())),
		xmltree.NewBottom()))
	aCall := func(c1, c2 *xmltree.Node) *xmltree.Node {
		return xmltree.New(xmltree.Nonterm(A.ID), c1, c2)
	}
	bCall := func() *xmltree.Node { return xmltree.New(xmltree.Nonterm(B.ID)) }
	C := g.NewRule(0, aCall(
		xmltree.NewBottom(),
		aCall(
			aCall(bCall(), xmltree.NewBottom()),
			aCall(bCall(), aCall(xmltree.NewBottom(), xmltree.NewBottom())))))
	// A and C are called elsewhere: an extra rule keeps refs(A) > 1 so
	// the export optimization applies, exactly as the paper assumes.
	extra := g.NewRule(0, aCall(xmltree.New(xmltree.Nonterm(C.ID)), xmltree.NewBottom()))
	g.StartRule().RHS = xmltree.New(xmltree.Term(c),
		xmltree.New(xmltree.Nonterm(C.ID)), xmltree.New(xmltree.Nonterm(extra.ID)))
	if err := g.Validate(); err != nil {
		t.Fatalf("grammar 2 invalid: %v", err)
	}
	return g, a, b
}

// TestGrammar2MultipleVersions replays the Section IV-E replacement and
// checks that several distinct versions of rule A are demanded, that val
// is preserved, and that the intermediate grammar stays bounded.
func TestGrammar2MultipleVersions(t *testing.T) {
	g, a, b := grammar2(t)
	want, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := g.Size()

	ix := newOccIndex(g, 4)
	d := digram.Digram{A: a, I: 1, B: b}
	if ix.queue.Count(d) < 4 {
		t.Fatalf("count(a,1,b) = %v, want several occurrences", ix.queue.Count(d))
	}
	x := g.Syms.Fresh("X", 3)
	r := newReplacer(g, ix, newScratch(), d, x, true)
	r.run()

	// The ReplacementDAG must have contained multiple versions of A
	// (the paper derives A^y2, A^{r,y1,y2}, A^{r,y1}, A^r).
	versionsOfA := map[string]bool{}
	for k := range r.versions {
		versionsOfA[k.fs] = true
	}
	if len(versionsOfA) < 3 {
		t.Fatalf("expected ≥3 distinct version flag sets, got %v", versionsOfA)
	}

	if err := g.Validate(); err != nil {
		t.Fatalf("invalid after replacement: %v\n%s", err, g)
	}
	// A single round duplicates fragments that later rounds re-share;
	// the bound here only guards against tree-scale explosion.
	if g.Size() > 6*sizeBefore {
		t.Fatalf("grammar grew from %d to %d", sizeBefore, g.Size())
	}

	// Convert X to its rule and compare val.
	xr := g.NewRule(3, d.PatternRHS(g.Syms))
	ntOf := map[int32]int32{x: xr.ID}
	g.Rules(func(rule *grammar.Rule) { convertGenerated(rule.RHS, ntOf) })
	got, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, want) {
		t.Fatal("val changed by the multi-version replacement")
	}
	// Every explicit (a,1,b) occurrence must be gone — except inside the
	// X pattern rule, which by definition is that digram.
	g.Rules(func(rule *grammar.Rule) {
		if rule.ID == xr.ID {
			return
		}
		rule.RHS.Walk(func(n *xmltree.Node) bool {
			if n.Label == xmltree.Term(a) && len(n.Children) > 0 &&
				n.Children[0].Label == xmltree.Term(b) {
				t.Errorf("unreplaced occurrence in rule N%d", rule.ID)
			}
			return true
		})
	})
}

// TestMaxRankRespected: digrams above k_in are never replaced, so all
// generated rules have rank ≤ k_in.
func TestMaxRankRespected(t *testing.T) {
	root := xmltree.NewUnranked("r")
	for i := 0; i < 200; i++ {
		root.Children = append(root.Children, xmltree.NewUnranked("a", xmltree.NewUnranked("b")))
	}
	for _, kin := range []int{1, 2, 4} {
		g, _ := CompressDocument(root.Binary(), Options{MaxRank: kin})
		g.Rules(func(r *grammar.Rule) {
			if r.Rank > kin {
				t.Errorf("kin=%d: rule N%d has rank %d", kin, r.ID, r.Rank)
			}
		})
		got, err := g.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != root.Binary().Root.Size() {
			t.Fatalf("kin=%d: val size changed", kin)
		}
	}
}

// TestEngineAgreement: TreeRePair and GrammarRePair-on-tree must produce
// grammars of comparable size on the same document (§V-B's claim), and
// identical vals.
func TestEngineAgreement(t *testing.T) {
	root := xmltree.NewUnranked("log")
	for i := 0; i < 300; i++ {
		rec := xmltree.NewUnranked("entry", xmltree.NewUnranked("h"), xmltree.NewUnranked("t"))
		if i%3 == 0 {
			rec.Children = append(rec.Children, xmltree.NewUnranked("x"))
		}
		root.Children = append(root.Children, rec)
	}
	doc := root.Binary()
	gTR, _ := CompressDocument(doc, Options{})
	// Build the same with the treerepair package via the facade-free
	// path: the core engine on a FromTree grammar.
	g2 := grammar.FromTree(doc.Syms.Clone(), doc.Root.Copy())
	gGR, _ := Compress(g2, Options{})
	a, _ := gTR.Expand(0)
	b, _ := gGR.Expand(0)
	if !xmltree.Equal(a, b) {
		t.Fatal("engines disagree on val")
	}
	if gTR.Size() > 2*gGR.Size()+20 || gGR.Size() > 2*gTR.Size()+20 {
		t.Fatalf("engine sizes diverge: %d vs %d", gTR.Size(), gGR.Size())
	}
}

// TestIdempotentRecompression: running GrammarRePair twice must not grow
// the grammar the second time.
func TestIdempotentRecompression(t *testing.T) {
	g, _, _ := grammar2(t)
	g1, _ := Compress(g, Options{})
	g2, st := Compress(g1, Options{})
	if g2.Size() > g1.Size()+2 {
		t.Fatalf("second pass grew the grammar: %d -> %d", g1.Size(), g2.Size())
	}
	if st.MaxIntermediate > 2*g1.Size()+10 {
		t.Fatalf("second pass blow-up: %d vs %d", st.MaxIntermediate, g1.Size())
	}
}
