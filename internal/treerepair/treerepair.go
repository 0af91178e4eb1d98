// Package treerepair implements the paper's baseline compressor
// TreeRePair [3]: RePair compression of a labeled ordered ranked tree into
// an SLCF tree grammar. Digram occurrences are maintained incrementally
// (the Larsson–Moffat style bookkeeping the paper refers to), so the whole
// compression runs in near-linear time.
//
// The mutable working tree lives in a chunked node arena addressed by
// int32 indices, occurrence sets are flat-hashed on packed digram keys,
// and each node carries its occurrence-list position intrusively (one slot
// per child edge), so the inner loop performs no per-node heap allocation
// and no pointer-keyed map probes.
//
// The udc baseline (update–decompress–compress) and Fig. 6's
// "decompress + compress" series are built on this package.
package treerepair

import (
	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// Options configures the compressor.
type Options struct {
	// MaxRank is the paper's k_in: digrams whose replacement rule would
	// need more than MaxRank parameters are never replaced. 0 means the
	// default of 4.
	MaxRank int
}

func (o Options) maxRank() int {
	if o.MaxRank <= 0 {
		return 4
	}
	return o.MaxRank
}

// Stats reports what happened during a compression run.
type Stats struct {
	Rounds          int   // number of digram replacements
	InputEdges      int   // edges of the input tree
	MaxIntermediate int   // max grammar size observed after any round
	FinalSize       int   // grammar size after pruning
	PrunedRules     int   // rules removed by the pruning phase
	Sizes           []int // grammar size after each round (for Fig. 2/3)
}

// Compress runs TreeRePair on the binary document and returns the
// resulting grammar (over a cloned symbol table; the document is not
// modified) together with run statistics.
func Compress(doc *xmltree.Document, opt Options) (*grammar.Grammar, *Stats) {
	return CompressTree(doc.Syms, doc.Root, opt)
}

// CompressTree runs TreeRePair on an arbitrary ranked tree of terminals.
func CompressTree(st *xmltree.SymbolTable, root *xmltree.Node, opt Options) (*grammar.Grammar, *Stats) {
	e := newEngine(st.Clone(), root, opt.maxRank())
	e.buildOccurrences()
	for {
		d, _, ok := e.queue.Best()
		if !ok {
			break
		}
		e.replaceAll(d)
		e.maybeRebuild()
	}
	g := e.toGrammar()
	e.stats.PrunedRules = g.Prune()
	e.stats.FinalSize = g.Size()
	return g, e.stats
}

// tnode is the mutable tree node used during compression. Nodes live in a
// chunked arena and reference each other by int32 index; children and occ
// are carved from a shared int32 slab. occ[i] is the node's position in
// the occurrence list of the digram (label, i+1, label(children[i])) when
// the node is a stored occurrence parent for child edge i, and -1
// otherwise — the intrusive replacement for the old per-set position map.
type tnode struct {
	label    int32
	parent   int32 // arena index of the parent; -1 for the root
	idx      int32 // index within parent's children
	children []int32
	occ      []int32
}

const (
	nilNode       = int32(-1)
	nodeChunkBits = 13
	nodeChunkSize = 1 << nodeChunkBits
)

// nodeArena allocates tnodes in fixed-size chunks. Chunk backing arrays
// never move, so *tnode pointers obtained via at() stay valid across
// later allocations. Freed nodes are recycled through a freelist, which
// bounds arena growth by the input size (each replacement frees two nodes
// and allocates one).
type nodeArena struct {
	chunks [][]tnode
	free   []int32
	n      int32 // high-water mark of allocated indices
}

func (a *nodeArena) alloc() int32 {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		*a.at(id) = tnode{}
		return id
	}
	if int(a.n)>>nodeChunkBits >= len(a.chunks) {
		a.chunks = append(a.chunks, make([]tnode, nodeChunkSize))
	}
	id := a.n
	a.n++
	return id
}

func (a *nodeArena) at(id int32) *tnode {
	return &a.chunks[id>>nodeChunkBits][id&(nodeChunkSize-1)]
}

// release recycles a node. The caller must have removed every occurrence
// reference to it first; stale indices held elsewhere (e.g. a replacement
// snapshot) are harmless because the recycled node's label can never match
// the digram being replaced.
func (a *nodeArena) release(id int32) { a.free = append(a.free, id) }

// i32Slab hands out []int32 scratch carved from chunked buffers. Slices
// are never reclaimed individually; superseded ones simply leak into their
// chunk, which the replacement freelist keeps bounded.
type i32Slab struct {
	cur []int32
}

const i32ChunkSize = 1 << 14

func (s *i32Slab) alloc(n int) []int32 {
	if n == 0 {
		return nil
	}
	if len(s.cur) < n {
		size := i32ChunkSize
		if n > size {
			size = n
		}
		s.cur = make([]int32, size)
	}
	out := s.cur[:n:n]
	s.cur = s.cur[n:]
	return out
}

type madeRule struct {
	term int32 // the generated terminal standing for X
	d    digram.Digram
}

type engine struct {
	st      *xmltree.SymbolTable
	arena   nodeArena
	slab    i32Slab
	root    int32
	maxRank int

	occs  digram.Table[[]int32] // packed digram key -> stored parent indices
	queue digram.Queue          // each digram's occurrence-list length
	rules []madeRule
	snap  []int32 // reusable replacement snapshot

	nodeCount int // live nodes in the tree
	ruleEdges int // Σ edges of created rules
	churn     int // adds+removes since last full rebuild

	stats *Stats
}

func newEngine(st *xmltree.SymbolTable, root *xmltree.Node, maxRank int) *engine {
	e := &engine{
		st:      st,
		maxRank: maxRank,
		stats:   &Stats{InputEdges: root.Edges()},
	}
	e.root = e.convert(root, nilNode, 0)
	e.nodeCount = root.Size()
	return e
}

func (e *engine) convert(n *xmltree.Node, parent, idx int32) int32 {
	id := e.arena.alloc()
	t := e.arena.at(id)
	t.label = n.Label.ID
	t.parent = parent
	t.idx = idx
	if len(n.Children) > 0 {
		t.children = e.slab.alloc(len(n.Children))
		t.occ = e.slab.alloc(len(n.Children))
		for i, c := range n.Children {
			t.occ[i] = -1
			// t stays valid: arena chunks never move.
			t.children[i] = e.convert(c, id, int32(i))
		}
	}
	return id
}

// tracked reports whether occurrences of d are worth tracking: only
// digrams whose replacement rule would be appropriate (rank ≤ k_in) can
// ever be replaced.
func (e *engine) tracked(d digram.Digram) bool {
	return d.Rank(e.st) <= e.maxRank
}

// stored reports whether v is currently a stored occurrence parent for
// digram d. The label checks make the answer exact even when v's index
// was recycled or v sits in a different digram's list at the same child
// edge.
func (e *engine) stored(v *tnode, d digram.Digram) bool {
	i := d.I - 1
	return v.label == d.A && i < len(v.children) &&
		v.occ[i] >= 0 && e.arena.at(v.children[i]).label == d.B
}

// tryAdd registers the occurrence whose tree parent is vid for digram d,
// enforcing the non-overlap rule for equal-label digrams: the child must
// not already be a stored parent, and the parent must not already be a
// stored child (i.e. v sits at child index d.I of a stored parent).
func (e *engine) tryAdd(vid int32, d digram.Digram) {
	if !e.tracked(d) {
		return
	}
	v := e.arena.at(vid)
	if d.EqualLabels() {
		w := e.arena.at(v.children[d.I-1])
		if e.stored(w, d) {
			return
		}
		if v.parent != nilNode && int(v.idx) == d.I-1 {
			if p := e.arena.at(v.parent); p.label == d.A && e.stored(p, d) {
				return
			}
		}
	}
	if v.occ[d.I-1] >= 0 {
		return // already stored
	}
	lst := e.occs.Ref(d.Key())
	v.occ[d.I-1] = int32(len(*lst))
	*lst = append(*lst, vid)
	e.churn++
	e.queue.Update(d, float64(len(*lst)))
}

func (e *engine) removeOcc(vid int32, d digram.Digram) {
	v := e.arena.at(vid)
	i := d.I - 1
	if i >= len(v.occ) || v.occ[i] < 0 {
		return
	}
	// Callers construct d from the node's current labels, so occ[i] ≥ 0
	// means v sits in exactly d's occurrence list.
	lst := e.occs.Ref(d.Key())
	pos := v.occ[i]
	last := len(*lst) - 1
	moved := (*lst)[last]
	(*lst)[pos] = moved
	e.arena.at(moved).occ[i] = pos
	*lst = (*lst)[:last]
	v.occ[i] = -1
	e.churn++
	e.queue.Update(d, float64(last))
}

// buildOccurrences scans the whole tree in postorder (bottom-up greedy,
// as TreeRePair does) and registers every non-overlapping occurrence.
// Intrusive positions are wiped preorder (parents before their subtrees)
// so the postorder re-registration never sees stale state.
func (e *engine) buildOccurrences() {
	e.occs.Clear()
	e.queue.Reset()
	var rec func(vid int32)
	rec = func(vid int32) {
		v := e.arena.at(vid)
		for i := range v.occ {
			v.occ[i] = -1
		}
		for _, c := range v.children {
			rec(c)
		}
		for i, c := range v.children {
			e.tryAdd(vid, digram.Digram{A: v.label, I: i + 1, B: e.arena.at(c).label})
		}
	}
	rec(e.root)
	e.churn = 0
}

// maybeRebuild re-derives all occurrence sets from scratch once enough
// incremental churn has accumulated. Incremental adds after deletions can
// leave equal-label chains slightly below their maximal non-overlapping
// packing; a periodic rebuild restores exact greedy alignment at amortized
// linear cost.
func (e *engine) maybeRebuild() {
	if e.churn > e.nodeCount {
		e.buildOccurrences()
	}
}

// replaceAll replaces every stored occurrence of d by a fresh generated
// terminal X and performs the Section IV-C context updates around each
// replacement site.
func (e *engine) replaceAll(d digram.Digram) {
	s, _ := e.occs.Get(d.Key())
	if len(s) < 2 {
		return
	}
	x := e.st.Fresh("X", d.Rank(e.st))
	e.rules = append(e.rules, madeRule{term: x, d: d})
	e.ruleEdges += e.st.Rank(d.A) + e.st.Rank(d.B)

	e.snap = append(e.snap[:0], s...)
	for _, vid := range e.snap {
		if !e.stored(e.arena.at(vid), d) {
			continue
		}
		e.replaceOne(vid, d, x)
	}
	e.stats.Rounds++
	size := e.grammarSizeNow()
	e.stats.Sizes = append(e.stats.Sizes, size)
	if size > e.stats.MaxIntermediate {
		e.stats.MaxIntermediate = size
	}
}

func (e *engine) grammarSizeNow() int {
	return (e.nodeCount - 1) + e.ruleEdges
}

func (e *engine) replaceOne(vid int32, d digram.Digram, x int32) {
	v := e.arena.at(vid)
	wid := v.children[d.I-1]
	w := e.arena.at(wid)
	// Context removals: every stored occurrence that shares a node with
	// (v, w) is keyed by p (parent of v), by v, or by w.
	if v.parent != nilNode {
		p := e.arena.at(v.parent)
		e.removeOcc(v.parent, digram.Digram{A: p.label, I: int(v.idx) + 1, B: v.label})
	}
	for i, c := range v.children {
		e.removeOcc(vid, digram.Digram{A: v.label, I: i + 1, B: e.arena.at(c).label})
	}
	for i, c := range w.children {
		e.removeOcc(wid, digram.Digram{A: w.label, I: i + 1, B: e.arena.at(c).label})
	}

	// Structural replacement: X(v.1..v.(i-1), w.1..w.n, v.(i+1)..v.m).
	n := len(v.children) - 1 + len(w.children)
	nc := e.slab.alloc(n)
	occ := e.slab.alloc(n)
	k := copy(nc, v.children[:d.I-1])
	k += copy(nc[k:], w.children)
	copy(nc[k:], v.children[d.I:])
	parent, idx := v.parent, v.idx
	// v and w are fully detached (no occurrence references remain); let the
	// arena recycle them. v/w must not be touched below this point.
	e.arena.release(vid)
	e.arena.release(wid)
	xid := e.arena.alloc()
	xn := e.arena.at(xid)
	xn.label = x
	xn.parent = parent
	xn.idx = idx
	xn.children = nc
	xn.occ = occ
	for i, c := range nc {
		occ[i] = -1
		cn := e.arena.at(c)
		cn.parent = xid
		cn.idx = int32(i)
	}
	if parent == nilNode {
		e.root = xid
	} else {
		e.arena.at(parent).children[idx] = xid
	}
	e.nodeCount--

	// Context additions: (p, X) and (X, c) digrams.
	if parent != nilNode {
		p := e.arena.at(parent)
		e.tryAdd(parent, digram.Digram{A: p.label, I: int(idx) + 1, B: x})
	}
	for i, c := range nc {
		e.tryAdd(xid, digram.Digram{A: x, I: i + 1, B: e.arena.at(c).label})
	}
}

// toGrammar converts the compressed tree plus the generated rules into an
// SLCF grammar: every generated terminal becomes a nonterminal whose rule
// body is its digram pattern (with nested generated terminals converted
// recursively).
func (e *engine) toGrammar() *grammar.Grammar {
	g := grammar.New(e.st)
	ntOf := make(map[int32]int32, len(e.rules))
	for _, mr := range e.rules {
		rhs := e.convertPattern(mr.d.PatternRHS(e.st), ntOf)
		r := g.NewRule(mr.d.Rank(e.st), rhs)
		ntOf[mr.term] = r.ID
	}
	g.StartRule().RHS = e.convertTree(e.root, ntOf)
	return g
}

func (e *engine) convertPattern(n *xmltree.Node, ntOf map[int32]int32) *xmltree.Node {
	if n.Label.Kind == xmltree.Terminal {
		if nt, ok := ntOf[n.Label.ID]; ok {
			n.Label = xmltree.Nonterm(nt)
		}
	}
	for _, c := range n.Children {
		e.convertPattern(c, ntOf)
	}
	return n
}

func (e *engine) convertTree(vid int32, ntOf map[int32]int32) *xmltree.Node {
	v := e.arena.at(vid)
	var lbl xmltree.Symbol
	if nt, ok := ntOf[v.label]; ok {
		lbl = xmltree.Nonterm(nt)
	} else {
		lbl = xmltree.Term(v.label)
	}
	n := xmltree.New(lbl)
	if len(v.children) > 0 {
		n.Children = make([]*xmltree.Node, len(v.children))
		for i, c := range v.children {
			n.Children[i] = e.convertTree(c, ntOf)
		}
	}
	return n
}
