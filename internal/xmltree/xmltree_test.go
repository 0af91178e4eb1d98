package xmltree

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSymbolTableIntern(t *testing.T) {
	st := NewSymbolTable()
	if st.Len() != 1 || st.Name(BottomID) != "⊥" || st.Rank(BottomID) != 0 {
		t.Fatalf("fresh table should contain only ⊥: %v", st)
	}
	a := st.InternElement("a")
	b := st.InternElement("b")
	if a == b {
		t.Fatal("distinct names must get distinct IDs")
	}
	if st.InternElement("a") != a {
		t.Fatal("intern must be idempotent")
	}
	if st.Rank(a) != 2 {
		t.Fatalf("element rank = %d, want 2", st.Rank(a))
	}
	a1 := st.Intern("a", 1)
	if a1 == a {
		t.Fatal("same name different rank must be distinct")
	}
}

func TestSymbolTableFresh(t *testing.T) {
	st := NewSymbolTable()
	x1 := st.Fresh("X", 3)
	x2 := st.Fresh("X", 3)
	if x1 == x2 {
		t.Fatal("fresh symbols must be distinct")
	}
	if st.Rank(x1) != 3 {
		t.Fatalf("rank = %d, want 3", st.Rank(x1))
	}
}

func TestSymbolTableClone(t *testing.T) {
	st := NewSymbolTable()
	st.InternElement("a")
	cp := st.Clone()
	cp.InternElement("b")
	if st.Len() != 2 || cp.Len() != 3 {
		t.Fatalf("clone must be independent: %d vs %d", st.Len(), cp.Len())
	}
}

func TestNodeCopyIndependence(t *testing.T) {
	st := NewSymbolTable()
	a := st.InternElement("a")
	n := New(Term(a), NewBottom(), New(Term(a), NewBottom(), NewBottom()))
	cp := n.Copy()
	if !Equal(n, cp) {
		t.Fatal("copy must be equal")
	}
	cp.Children[1].Label = Bottom
	cp.Children[1].Children = nil
	if Equal(n, cp) {
		t.Fatal("mutating the copy must not affect the original")
	}
}

func TestCopyMapped(t *testing.T) {
	st := NewSymbolTable()
	a := st.InternElement("a")
	inner := New(Term(a), NewBottom(), NewBottom())
	n := New(Term(a), inner, NewBottom())
	m := make(map[*Node]*Node)
	cp := n.CopyMapped(m)
	if m[n] != cp {
		t.Fatal("root mapping wrong")
	}
	if m[inner] != cp.Children[0] {
		t.Fatal("inner mapping wrong")
	}
	if len(m) != 5 {
		t.Fatalf("mapping should cover all 5 nodes, got %d", len(m))
	}
}

func TestSizeEdgesWalk(t *testing.T) {
	st := NewSymbolTable()
	a := st.InternElement("a")
	n := New(Term(a), New(Term(a), NewBottom(), NewBottom()), NewBottom())
	if n.Size() != 5 {
		t.Fatalf("size = %d, want 5", n.Size())
	}
	if n.Edges() != 4 {
		t.Fatalf("edges = %d, want 4", n.Edges())
	}
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	if count != 5 {
		t.Fatalf("walk visited %d, want 5", count)
	}
	// Pruned walk: skip children of the root.
	count = 0
	n.Walk(func(v *Node) bool { count++; return v != n })
	if count != 1 {
		t.Fatalf("pruned walk visited %d, want 1", count)
	}
}

func TestWalkParent(t *testing.T) {
	st := NewSymbolTable()
	a := st.InternElement("a")
	n := New(Term(a), NewBottom(), NewBottom())
	type rec struct {
		parent *Node
		idx    int
	}
	got := map[*Node]rec{}
	n.WalkParent(func(v, p *Node, i int) bool {
		got[v] = rec{p, i}
		return true
	})
	if got[n].parent != nil || got[n].idx != -1 {
		t.Fatal("root must have nil parent")
	}
	if got[n.Children[0]].parent != n || got[n.Children[0]].idx != 0 {
		t.Fatal("first child parent info wrong")
	}
	if got[n.Children[1]].idx != 1 {
		t.Fatal("second child index wrong")
	}
}

func TestPreorderIndex(t *testing.T) {
	st := NewSymbolTable()
	a := st.InternElement("a")
	b := st.InternElement("b")
	// a(b(⊥,⊥), ⊥): preorder = a, b, ⊥, ⊥, ⊥
	n := New(Term(a), New(Term(b), NewBottom(), NewBottom()), NewBottom())
	if n.PreorderIndex(0) != n {
		t.Fatal("index 0 must be the root")
	}
	if n.PreorderIndex(1).Label != Term(b) {
		t.Fatal("index 1 must be b")
	}
	if n.PreorderIndex(4) != n.Children[1] {
		t.Fatal("index 4 must be the last ⊥")
	}
	if n.PreorderIndex(5) != nil {
		t.Fatal("out of range must be nil")
	}
}

func TestMaxParamAndCountLabel(t *testing.T) {
	st := NewSymbolTable()
	a := st.InternElement("a")
	n := New(Term(a), New(Param(1)), New(Term(a), New(Param(2)), NewBottom()))
	if n.MaxParam() != 2 {
		t.Fatalf("MaxParam = %d, want 2", n.MaxParam())
	}
	if n.CountLabel(Term(a)) != 2 {
		t.Fatal("CountLabel(a) should be 2")
	}
	if n.CountLabel(Bottom) != 1 {
		t.Fatal("CountLabel(⊥) should be 1")
	}
}

// randomUnranked builds a random unranked tree with exactly n nodes.
func randomUnranked(rng *rand.Rand, n int, labels []string) *Unranked {
	root := &Unranked{Label: labels[rng.Intn(len(labels))]}
	nodes := []*Unranked{root}
	for i := 1; i < n; i++ {
		p := nodes[rng.Intn(len(nodes))]
		c := &Unranked{Label: labels[rng.Intn(len(labels))]}
		p.Children = append(p.Children, c)
		nodes = append(nodes, c)
	}
	return root
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < 50; i++ {
		u := randomUnranked(rng, 1+rng.Intn(60), labels)
		doc := u.Binary()
		if err := doc.ValidateBinary(); err != nil {
			t.Fatalf("invalid binary encoding: %v", err)
		}
		back, err := doc.ToUnranked()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(u, back) {
			t.Fatalf("round trip mismatch:\n%v\n%v", u, back)
		}
		if doc.BinaryEdges() != u.Edges() {
			t.Fatalf("BinaryEdges = %d, want %d", doc.BinaryEdges(), u.Edges())
		}
	}
}

func TestBinaryEncodingShape(t *testing.T) {
	// Paper Fig. 1: f(a,a,a) with nested a's. Simplest check: f with two
	// a children encodes as f(a(⊥, a(⊥,⊥)), ⊥).
	u := NewUnranked("f", NewUnranked("a"), NewUnranked("a"))
	doc := u.Binary()
	f := doc.Root
	if doc.Syms.Name(f.Label.ID) != "f" {
		t.Fatal("root must be f")
	}
	if !f.Children[1].Label.IsBottom() {
		t.Fatal("root next-sibling must be ⊥")
	}
	a1 := f.Children[0]
	if doc.Syms.Name(a1.Label.ID) != "a" || !a1.Children[0].Label.IsBottom() {
		t.Fatal("first child must be a with ⊥ first-child")
	}
	a2 := a1.Children[1]
	if doc.Syms.Name(a2.Label.ID) != "a" {
		t.Fatal("second child must be chained as next-sibling")
	}
	if !a2.Children[1].Label.IsBottom() {
		t.Fatal("last sibling's next-sibling must be ⊥")
	}
}

func TestBinaryNodeCount(t *testing.T) {
	// A binary encoding of an unranked tree with n nodes has exactly
	// 2n+1 nodes (each element contributes itself + one ⊥ closes each
	// child list and each sibling chain).
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%80
		u := randomUnranked(rng, n, []string{"x", "y"})
		return u.Binary().Root.Size() == 2*n+1
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParseAndWriteXML(t *testing.T) {
	src := `<?xml version="1.0"?><site><regions><item id="1">text</item><item/></regions><people/></site>`
	u, err := ParseXML(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := NewUnranked("site",
		NewUnranked("regions", NewUnranked("item"), NewUnranked("item")),
		NewUnranked("people"))
	if !reflect.DeepEqual(u, want) {
		t.Fatalf("parse mismatch: %+v", u)
	}
	var buf bytes.Buffer
	if err := WriteXML(&buf, u); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "<site><regions><item/><item/></regions><people/></site>" {
		t.Fatalf("serialize mismatch: %s", got)
	}
	// Round trip through text.
	u2, err := ParseXML(&buf)
	if err == nil {
		err = func() error { return nil }()
	}
	_ = u2
}

func TestParseXMLErrors(t *testing.T) {
	cases := []string{
		``,
		`<a><b></a></b>`,
		`<a/><b/>`,
	}
	for _, src := range cases {
		if _, err := ParseXML(strings.NewReader(src)); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

func TestXMLTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		u := randomUnranked(rng, 1+rng.Intn(40), []string{"a", "b", "c"})
		var buf bytes.Buffer
		if err := WriteXML(&buf, u); err != nil {
			t.Fatal(err)
		}
		back, err := ParseXML(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(u, back) {
			t.Fatal("XML text round trip mismatch")
		}
	}
}

func TestUnrankedStats(t *testing.T) {
	u := NewUnranked("r",
		NewUnranked("a", NewUnranked("b")),
		NewUnranked("c"))
	if u.Nodes() != 4 || u.Edges() != 3 {
		t.Fatalf("nodes/edges = %d/%d", u.Nodes(), u.Edges())
	}
	if u.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", u.Depth())
	}
}

func TestFormatString(t *testing.T) {
	st := NewSymbolTable()
	a := st.InternElement("a")
	n := New(Term(a), New(Param(1)), New(Nonterm(3), NewBottom()))
	got := n.Format(st)
	if got != "a(y1,N3(⊥))" {
		t.Fatalf("format = %q", got)
	}
	if !strings.Contains(n.String(), "t1") {
		t.Fatalf("String without table should use t<ID>: %q", n.String())
	}
}

// TestSymbolTableTruncate checks that Truncate forgets the dropped
// terminals entirely: their names intern afresh, from the truncated
// length on, and the kept terminals keep their IDs.
func TestSymbolTableTruncate(t *testing.T) {
	st := NewSymbolTable()
	a := st.InternElement("a")
	n := st.Len()
	x := st.Fresh("X", 3)
	xname := st.Name(x)
	st.InternElement("b")
	st.Truncate(n)
	if st.Len() != n {
		t.Fatalf("Len = %d after Truncate(%d)", st.Len(), n)
	}
	if got := st.InternElement("a"); got != a {
		t.Fatalf("kept terminal a moved: %d, want %d", got, a)
	}
	if got := st.InternElement("b"); got != int32(n) || st.Rank(got) != 2 {
		t.Fatalf("re-interned b = %d (rank %d), want %d (rank 2)", got, st.Rank(got), n)
	}
	if got := st.Intern(xname, 3); got == x {
		t.Fatalf("dropped terminal %s still interned", xname)
	}
}

// TestSymbolTableFreshKeepsInterned checks that a fresh terminal whose
// generated name and rank equal an interned label's neither shadows that
// label nor takes it along when Truncate drops the fresh terminal.
func TestSymbolTableFreshKeepsInterned(t *testing.T) {
	st := NewSymbolTable()
	x2 := st.Intern("X2", 3)
	n := st.Len()
	if f := st.Fresh("X", 3); st.Name(f) != "X2" {
		t.Fatalf("fresh terminal named %q, want X2", st.Name(f))
	}
	if got := st.Intern("X2", 3); got != x2 {
		t.Fatalf("Intern(X2) = %d after Fresh, want %d", got, x2)
	}
	st.Truncate(n)
	if got := st.Intern("X2", 3); got != x2 || st.Len() != n {
		t.Fatalf("Intern(X2) = %d (Len %d) after Truncate, want %d (Len %d)", got, st.Len(), x2, n)
	}
}
