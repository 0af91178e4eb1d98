package xmltree

// Arena is a chunked allocator for Nodes and their Children slices, with a
// freelist for nodes the caller can prove dead. The compressors allocate
// millions of short-lived grammar nodes (rule-body copies, inlined version
// templates, digram patterns); allocating them in chunks amortizes the
// allocator cost to one heap allocation per chunk and keeps the nodes
// cache-adjacent.
//
// Nodes handed out by an arena are ordinary *Node values: they may outlive
// the arena (the chunks stay reachable through them) and may be mixed
// freely with heap-allocated nodes. Free returns a single node to the
// arena's freelist for reuse; the caller must guarantee that no reference
// to the node survives — in particular that the pointer is not a key in
// any live map or registered in a live Aux-indexed table (a recycled
// pointer would alias the stale entry).
//
// Reset recycles every chunk at once, with the same obligation for every
// node and Children slice handed out since the previous Reset. It zeroes
// them (Label, Aux, Children), so a stale Aux never validates against a
// table that is reset alongside the arena.
//
// All methods are nil-receiver safe: a nil *Arena falls back to plain heap
// allocation, so arena use can be threaded through optional parameters.
type Arena struct {
	nodes []Node  // rest of the current node chunk, consumed from the front
	ptrs  []*Node // rest of the current Children-slab chunk
	free  []*Node // recycled nodes

	// Every chunk carved so far, in carving order; after Reset the
	// arena hands them out again from the first one.
	nodeChunks         [][]Node
	ptrChunks          [][]*Node
	nextNode, nextPtrs int // next chunk to take from nodeChunks / ptrChunks
}

const (
	arenaNodeChunk = 1024
	arenaPtrChunk  = 4096
)

// New returns a node with the given label and no children.
func (a *Arena) New(label Symbol) *Node {
	if a == nil {
		return &Node{Label: label}
	}
	if n := len(a.free); n > 0 {
		nd := a.free[n-1]
		a.free = a.free[:n-1]
		nd.Label = label
		// A recycled pointer would pass the self-validation of any
		// Aux-indexed table (editor.locs, isolate.Memo) that still holds
		// the dead node's entry; zeroing Aux makes such a table miss and
		// re-register instead of serving the dead node's data.
		nd.Aux = 0
		nd.Children = nil
		return nd
	}
	if len(a.nodes) == 0 {
		if a.nextNode == len(a.nodeChunks) {
			a.nodeChunks = append(a.nodeChunks, make([]Node, arenaNodeChunk))
		}
		a.nodes = a.nodeChunks[a.nextNode]
		a.nextNode++
	}
	nd := &a.nodes[0]
	a.nodes = a.nodes[1:]
	nd.Label = label
	return nd
}

// Children returns a zeroed []*Node of length (and capacity) n carved from
// the arena's pointer slab. Appending past n falls back to an ordinary
// heap-grown slice, so the slices behave like any other.
func (a *Arena) Children(n int) []*Node {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]*Node, n)
	}
	if len(a.ptrs) < n {
		if a.nextPtrs == len(a.ptrChunks) {
			a.ptrChunks = append(a.ptrChunks, nil)
		}
		if len(a.ptrChunks[a.nextPtrs]) < n {
			a.ptrChunks[a.nextPtrs] = make([]*Node, max(arenaPtrChunk, n))
		}
		a.ptrs = a.ptrChunks[a.nextPtrs]
		a.nextPtrs++
	}
	s := a.ptrs[:n:n]
	a.ptrs = a.ptrs[n:]
	return s
}

// Free recycles a node into the arena's freelist. The node's Children
// slice is dropped (its slab space is not reclaimed). See the type comment
// for the aliasing obligations.
func (a *Arena) Free(n *Node) {
	if a == nil || n == nil {
		return
	}
	n.Children = nil
	a.free = append(a.free, n)
}

// Reset zeroes every node and Children slice handed out so far and makes
// the arena hand out the same memory again, keeping its chunks. See the
// type comment for the aliasing obligations.
func (a *Arena) Reset() {
	for _, c := range a.nodeChunks[:a.nextNode] {
		clear(c)
	}
	for _, c := range a.ptrChunks[:a.nextPtrs] {
		clear(c)
	}
	clear(a.free)
	a.free = a.free[:0]
	a.nodes, a.ptrs = nil, nil
	a.nextNode, a.nextPtrs = 0, 0
}

// CopyIn returns a deep copy of the subtree rooted at n, with every node
// and children slice allocated from the arena.
func (n *Node) CopyIn(a *Arena) *Node {
	if n == nil {
		return nil
	}
	cp := a.New(n.Label)
	if len(n.Children) > 0 {
		cp.Children = a.Children(len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = c.CopyIn(a)
		}
	}
	return cp
}

// CopyMappedIn is CopyMapped with arena allocation.
func (n *Node) CopyMappedIn(m map[*Node]*Node, a *Arena) *Node {
	if n == nil {
		return nil
	}
	cp := a.New(n.Label)
	m[n] = cp
	if len(n.Children) > 0 {
		cp.Children = a.Children(len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = c.CopyMappedIn(m, a)
		}
	}
	return cp
}
