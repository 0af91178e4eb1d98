package grammar

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// paperGrammar builds the Section II example:
//
//	S -> f(A(B,B), ⊥)
//	B -> A(⊥,⊥)
//	A(y1,y2) -> a(⊥, a(y1,y2))
//
// which derives f(a(⊥,a(t,t)),⊥) with t = a(⊥,a(⊥,⊥)).
func paperGrammar(t *testing.T) (*Grammar, int32, int32) {
	t.Helper()
	st := xmltree.NewSymbolTable()
	f := st.InternElement("f")
	a := st.InternElement("a")
	g := New(st)
	A := g.NewRule(2, xmltree.New(xmltree.Term(a),
		xmltree.NewBottom(),
		xmltree.New(xmltree.Term(a), xmltree.New(xmltree.Param(1)), xmltree.New(xmltree.Param(2)))))
	B := g.NewRule(0, xmltree.New(xmltree.Nonterm(A.ID), xmltree.NewBottom(), xmltree.NewBottom()))
	g.StartRule().RHS = xmltree.New(xmltree.Term(f),
		xmltree.New(xmltree.Nonterm(A.ID),
			xmltree.New(xmltree.Nonterm(B.ID)),
			xmltree.New(xmltree.Nonterm(B.ID))),
		xmltree.NewBottom())
	if err := g.Validate(); err != nil {
		t.Fatalf("paper grammar invalid: %v", err)
	}
	return g, A.ID, B.ID
}

func TestPaperExampleExpansion(t *testing.T) {
	g, _, _ := paperGrammar(t)
	tree, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	// t = a(⊥, a(⊥,⊥)); val(S) = f(a(⊥, a(t,t)), ⊥)  — 13 nodes total.
	want := "f(a(⊥,a(a(⊥,a(⊥,⊥)),a(⊥,a(⊥,⊥)))),⊥)"
	if got := tree.Format(g.Syms); got != want {
		t.Fatalf("val(S) = %s, want %s", got, want)
	}
}

func TestExpandBudget(t *testing.T) {
	g, _, _ := paperGrammar(t)
	if _, err := g.Expand(5); !errors.Is(err, ErrExpandBudget) {
		t.Fatalf("want budget error, got %v", err)
	}
	if _, err := g.Expand(15); err != nil {
		t.Fatalf("15 nodes should fit exactly: %v", err)
	}
}

func TestExpandRuleKeepsParameters(t *testing.T) {
	g, A, _ := paperGrammar(t)
	tr, err := g.ExpandRule(A, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Format(g.Syms); got != "a(⊥,a(y1,y2))" {
		t.Fatalf("val(A) = %s", got)
	}
}

func TestSizeAndNodeCount(t *testing.T) {
	g, _, _ := paperGrammar(t)
	// RHS sizes: S has 6 nodes (f, A, B, B, ⊥ plus... f(A(B,B),⊥):
	// f, A, B, B, ⊥ = 5 nodes, 4 edges. A: a,⊥,a,y1,y2 = 5 nodes, 4 edges.
	// B: A,⊥,⊥ = 3 nodes, 2 edges. |G| = 10.
	if got := g.Size(); got != 10 {
		t.Fatalf("|G| = %d, want 10", got)
	}
	if got := g.NodeCount(); got != 13 {
		t.Fatalf("node count = %d, want 13", got)
	}
}

func TestRefCounts(t *testing.T) {
	g, A, B := paperGrammar(t)
	refs := g.RefCounts()
	if refs[A] != 2 {
		t.Fatalf("refs(A) = %d, want 2 (S and B call it)", refs[A])
	}
	if refs[B] != 2 {
		t.Fatalf("refs(B) = %d, want 2", refs[B])
	}
	if refs[g.Start] != 0 {
		t.Fatalf("refs(S) = %d, want 0", refs[g.Start])
	}
}

func TestUsage(t *testing.T) {
	g, A, B := paperGrammar(t)
	usage, err := g.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if usage[g.Start] != 1 {
		t.Fatal("usage(S) must be 1")
	}
	if usage[B] != 2 {
		t.Fatalf("usage(B) = %v, want 2", usage[B])
	}
	// A is called once from S (usage 1) and once from B (usage 2) = 3.
	if usage[A] != 3 {
		t.Fatalf("usage(A) = %v, want 3", usage[A])
	}
}

func TestAntiSLOrder(t *testing.T) {
	g, A, B := paperGrammar(t)
	anti, err := g.AntiSLOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int32]int{}
	for i, id := range anti {
		pos[id] = i
	}
	if !(pos[A] < pos[B] && pos[B] < pos[g.Start]) {
		t.Fatalf("anti-SL order wrong: %v", anti)
	}
	sl, err := g.SLOrder()
	if err != nil {
		t.Fatal(err)
	}
	if sl[0] != g.Start {
		t.Fatalf("SL order must start with S: %v", sl)
	}
}

func TestValidateRejectsRecursion(t *testing.T) {
	st := xmltree.NewSymbolTable()
	g := New(st)
	A := g.NewRule(0, nil)
	B := g.NewRule(0, xmltree.New(xmltree.Nonterm(A.ID)))
	A.RHS = xmltree.New(xmltree.Nonterm(B.ID))
	g.StartRule().RHS = xmltree.New(xmltree.Nonterm(A.ID))
	if err := g.Validate(); err == nil {
		t.Fatal("recursive grammar must be rejected")
	}
}

func TestValidateRejectsBadArity(t *testing.T) {
	st := xmltree.NewSymbolTable()
	a := st.InternElement("a")
	g := New(st)
	g.StartRule().RHS = xmltree.New(xmltree.Term(a), xmltree.NewBottom()) // a needs 2 children
	if err := g.Validate(); err == nil {
		t.Fatal("terminal arity violation must be rejected")
	}
}

func TestValidateRejectsParamOrderAndLinearity(t *testing.T) {
	st := xmltree.NewSymbolTable()
	a := st.InternElement("a")
	g := New(st)
	// A(y1,y2) -> a(y2, y1): parameters out of preorder order.
	A := g.NewRule(2, xmltree.New(xmltree.Term(a),
		xmltree.New(xmltree.Param(2)), xmltree.New(xmltree.Param(1))))
	g.StartRule().RHS = xmltree.New(xmltree.Nonterm(A.ID), xmltree.NewBottom(), xmltree.NewBottom())
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-order parameters must be rejected")
	}
	// A(y1,y2) -> a(y1, y1): y1 twice, y2 missing.
	A.RHS = xmltree.New(xmltree.Term(a),
		xmltree.New(xmltree.Param(1)), xmltree.New(xmltree.Param(1)))
	if err := g.Validate(); err == nil {
		t.Fatal("non-linear parameters must be rejected")
	}
}

func TestValidateRejectsStartOnRHS(t *testing.T) {
	st := xmltree.NewSymbolTable()
	a := st.InternElement("a")
	g := New(st)
	A := g.NewRule(0, xmltree.New(xmltree.Nonterm(g.Start)))
	g.StartRule().RHS = xmltree.New(xmltree.Term(a),
		xmltree.New(xmltree.Nonterm(A.ID)), xmltree.NewBottom())
	if err := g.Validate(); err == nil {
		t.Fatal("start symbol on a RHS must be rejected")
	}
}

func TestInlineAt(t *testing.T) {
	g, A, B := paperGrammar(t)
	// Inline B at node (S,3): S -> f(A(A(⊥,⊥), B), ⊥), paper Section II.
	s := g.StartRule()
	aCall := s.RHS.Children[0] // the A(B,B) node
	g.InlineAt(s, aCall, 0)
	want := "f(N" // sanity: A id formatting
	_ = want
	got := s.RHS.Format(g.Syms)
	if !strings.Contains(got, "N1(N1(⊥,⊥)") && !strings.Contains(got, "N1(N1(⊥,⊥),N2)") {
		// A has id 1, B id 2 given creation order after start (id 0).
		t.Fatalf("inline result unexpected: %s", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("grammar invalid after inline: %v", err)
	}
	// val must be unchanged by inlining.
	tree, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Format(g.Syms) != "f(a(⊥,a(a(⊥,a(⊥,⊥)),a(⊥,a(⊥,⊥)))),⊥)" {
		t.Fatalf("val changed by inlining: %s", tree.Format(g.Syms))
	}
	_ = A
	_ = B
}

func TestInlineAtRoot(t *testing.T) {
	st := xmltree.NewSymbolTable()
	a := st.InternElement("a")
	g := New(st)
	A := g.NewRule(0, xmltree.New(xmltree.Term(a), xmltree.NewBottom(), xmltree.NewBottom()))
	g.StartRule().RHS = xmltree.New(xmltree.Nonterm(A.ID))
	sub := g.InlineAt(g.StartRule(), nil, 0)
	if g.StartRule().RHS != sub {
		t.Fatal("root inline must replace the rule RHS")
	}
	if got := g.StartRule().RHS.Format(g.Syms); got != "a(⊥,⊥)" {
		t.Fatalf("got %s", got)
	}
}

func TestValSizesPaperExample(t *testing.T) {
	// Paper: valG(A) = f(y1, g(h(a,y2), g(a,y3))) ⇒ size(A,·) = 1,3,2,0.
	st := xmltree.NewSymbolTable()
	f := st.InternElement("f") // rank 2
	gsym := st.Intern("g", 2)
	h := st.Intern("h", 2)
	a := st.Intern("a", 0)
	g := New(st)
	A := g.NewRule(3, xmltree.New(xmltree.Term(f),
		xmltree.New(xmltree.Param(1)),
		xmltree.New(xmltree.Term(gsym),
			xmltree.New(xmltree.Term(h), xmltree.New(xmltree.Term(a)), xmltree.New(xmltree.Param(2))),
			xmltree.New(xmltree.Term(gsym), xmltree.New(xmltree.Term(a)), xmltree.New(xmltree.Param(3))))))
	g.StartRule().RHS = xmltree.New(xmltree.Nonterm(A.ID),
		xmltree.New(xmltree.Term(a)), xmltree.New(xmltree.Term(a)), xmltree.New(xmltree.Term(a)))
	sizes, err := g.ValSizes()
	if err != nil {
		t.Fatal(err)
	}
	sv := sizes.Get(A.ID)
	want := []int64{1, 3, 2, 0}
	for i, w := range want {
		if sv.Seg[i] != w {
			t.Fatalf("size(A,%d) = %d, want %d (all: %v)", i, sv.Seg[i], w, sv.Seg)
		}
	}
	if sv.Total != 6 {
		t.Fatalf("total = %d, want 6", sv.Total)
	}
	// val(S) = val(A) with three a-leaves substituted: 6 + 3 = 9 nodes.
	n, err := g.ValNodeCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("ValNodeCount = %d, want 9", n)
	}
}

func TestValSizesNestedCalls(t *testing.T) {
	g, _, _ := paperGrammar(t)
	n, err := g.ValNodeCount()
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := g.Expand(0)
	if int64(tree.Size()) != n {
		t.Fatalf("ValNodeCount = %d, expansion has %d nodes", n, tree.Size())
	}
}

func TestSubtreeValSize(t *testing.T) {
	g, _, _ := paperGrammar(t)
	sizes, err := g.ValSizes()
	if err != nil {
		t.Fatal(err)
	}
	s := g.StartRule()
	got := SubtreeValSize(s.RHS, sizes)
	if got != 15 {
		t.Fatalf("SubtreeValSize(S rhs) = %d, want 15", got)
	}
	// The A(B,B) subtree: val has 15-2 = 13 nodes (minus f and ⊥).
	if got := SubtreeValSize(s.RHS.Children[0], sizes); got != 13 {
		t.Fatalf("SubtreeValSize(A(B,B)) = %d, want 13", got)
	}
}

func TestGarbageCollect(t *testing.T) {
	g, _, _ := paperGrammar(t)
	dead := g.NewRule(0, xmltree.NewBottom())
	dead2 := g.NewRule(0, xmltree.New(xmltree.Nonterm(dead.ID)))
	if n := g.GarbageCollect(); n != 2 {
		t.Fatalf("collected %d rules, want 2", n)
	}
	if g.Rule(dead.ID) != nil || g.Rule(dead2.ID) != nil {
		t.Fatal("dead rules must be removed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g, A, _ := paperGrammar(t)
	cp := g.Clone()
	cp.Rule(A).RHS = xmltree.NewBottom()
	cp.Rule(A).Rank = 0
	if g.Rule(A).RHS.Label.IsBottom() {
		t.Fatal("clone must not share RHS nodes")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteRule(t *testing.T) {
	g, _, _ := paperGrammar(t)
	r := g.NewRule(0, xmltree.NewBottom())
	before := g.NumRules()
	g.DeleteRule(r.ID)
	if g.NumRules() != before-1 {
		t.Fatal("rule not deleted")
	}
	g.DeleteRule(r.ID) // idempotent
	if g.NumRules() != before-1 {
		t.Fatal("double delete changed count")
	}

	// A decoded stream may list rules out of ID order; the creation
	// order must keep it, less the deleted rule.
	a, b := g.NewRule(0, xmltree.NewBottom()), g.NewRule(0, xmltree.NewBottom())
	slices.Reverse(g.order)
	want := slices.DeleteFunc(slices.Clone(g.order), func(id int32) bool { return id == a.ID })
	g.DeleteRule(a.ID)
	if !slices.Equal(g.order, want) || g.Rule(b.ID) == nil {
		t.Fatalf("order %v after deleting N%d, want %v", g.order, a.ID, want)
	}
}

func TestStringRendering(t *testing.T) {
	g, _, _ := paperGrammar(t)
	s := g.String()
	if !strings.Contains(s, "->") || !strings.Contains(s, "y1") {
		t.Fatalf("rendering looks wrong:\n%s", s)
	}
	// Start rule must come first.
	if !strings.HasPrefix(s, "N0 ->") {
		t.Fatalf("start rule must lead:\n%s", s)
	}
}

func TestFromDocument(t *testing.T) {
	u := xmltree.NewUnranked("r", xmltree.NewUnranked("a"))
	doc := u.Binary()
	g := FromDocument(doc)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	tree, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(tree, doc.Root) {
		t.Fatal("FromDocument expansion must equal the document")
	}
}

func TestUsageUnreachableRule(t *testing.T) {
	g, _, _ := paperGrammar(t)
	dead := g.NewRule(0, xmltree.NewBottom())
	usage, err := g.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if usage[dead.ID] != 0 {
		t.Fatalf("unreachable rule usage = %v, want 0", usage[dead.ID])
	}
}
