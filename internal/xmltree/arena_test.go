package xmltree

import "testing"

func arenaTree() *Node {
	st := NewSymbolTable()
	a := st.InternElement("a")
	b := st.InternElement("b")
	return New(Term(a),
		New(Term(b), NewBottom(), NewBottom()),
		New(Term(b), New(Param(1)), NewBottom()))
}

func TestArenaCopyEqualsHeapCopy(t *testing.T) {
	n := arenaTree()
	var a Arena
	cp := n.CopyIn(&a)
	if !Equal(n, cp) {
		t.Fatal("arena copy differs")
	}
	// Mutating the copy must not touch the original.
	cp.Children[0].Label = Param(3)
	if Equal(n, cp) {
		t.Fatal("copy aliases original")
	}
}

func TestArenaCopyMapped(t *testing.T) {
	n := arenaTree()
	var a Arena
	m := make(map[*Node]*Node)
	cp := n.CopyMappedIn(m, &a)
	if !Equal(n, cp) {
		t.Fatal("arena copy differs")
	}
	if len(m) != n.Size() {
		t.Fatalf("mapped %d of %d nodes", len(m), n.Size())
	}
	var check func(orig *Node)
	check = func(orig *Node) {
		if m[orig].Label != orig.Label {
			t.Fatalf("mapping label mismatch at %v", orig.Label)
		}
		for _, c := range orig.Children {
			check(c)
		}
	}
	check(n)
}

func TestArenaFreeReuses(t *testing.T) {
	var a Arena
	n1 := a.New(Term(1))
	a.Free(n1)
	n2 := a.New(Term(2))
	if n1 != n2 {
		t.Fatal("freelist did not reuse the node")
	}
	if n2.Label != Term(2) || n2.Children != nil {
		t.Fatal("recycled node not reset")
	}
}

func TestNilArenaFallsBackToHeap(t *testing.T) {
	var a *Arena
	n := a.New(Term(1))
	n.Children = a.Children(2)
	if n == nil || len(n.Children) != 2 {
		t.Fatal("nil arena allocation failed")
	}
	a.Free(n) // must not panic
}

// TestArenaCopyAllocsAmortized: copying a tree through a warm arena must
// cost far fewer heap allocations than one per node.
func TestArenaCopyAllocsAmortized(t *testing.T) {
	n := arenaTree()
	var a Arena
	// Warm the chunks.
	n.CopyIn(&a)
	allocs := testing.AllocsPerRun(200, func() {
		n.CopyIn(&a)
	})
	// 7 nodes + 3 children slices per copy; amortized chunk refills only.
	if allocs > 1 {
		t.Fatalf("arena copy allocated %.1f times per run", allocs)
	}
}

// TestArenaResetReusesZeroedChunks: after Reset the arena hands out the
// same nodes and Children slabs again, zeroed, and allocates nothing
// while the earlier chunks suffice.
func TestArenaResetReusesZeroedChunks(t *testing.T) {
	var a Arena
	fill := func() []*Node {
		var out []*Node
		for i := 0; i < 3*arenaNodeChunk; i++ {
			n := a.New(Term(int32(i)))
			n.Aux = int32(i)
			n.Children = a.Children(2)
			n.Children[0] = n
			out = append(out, n)
		}
		big := a.Children(2 * arenaPtrChunk) // larger than a chunk
		big[0] = out[0]
		return out
	}
	first := fill()
	a.Free(first[len(first)-1])
	a.Reset()
	for _, n := range first {
		if n.Label != (Symbol{}) || n.Aux != 0 || n.Children != nil {
			t.Fatalf("node not zeroed by Reset: %+v", *n)
		}
	}
	if n := a.New(Term(7)); n != first[0] || n.Label != Term(7) {
		t.Fatal("Reset did not rewind to the first chunk")
	}
	a.Reset()
	if allocs := testing.AllocsPerRun(5, func() {
		a.Reset()
		for i := 0; i < 3*arenaNodeChunk; i++ {
			a.New(Term(1)).Children = a.Children(2)
		}
		a.Children(2 * arenaPtrChunk)
	}); allocs != 0 {
		t.Fatalf("refilling a reset arena allocated %.0f times", allocs)
	}
}
