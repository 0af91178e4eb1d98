// Package treerepair implements the paper's baseline compressor
// TreeRePair [3]: RePair compression of a labeled ordered ranked tree into
// an SLCF tree grammar. Digram occurrences are maintained incrementally
// (the Larsson–Moffat style bookkeeping the paper refers to), so the whole
// compression runs in near-linear time.
//
// The mutable working tree is pointer-free: nodes live in a flat arena
// addressed by int32 indices, and every node's children and occurrence-list
// positions (one per child edge, intrusively) are int32 blocks of one
// slab, so the garbage collector never scans them. Each digram has one
// dense slot in the digram queue, found by one hash of its packed key;
// its occurrence list is indexed by that slot, so an occurrence add or
// remove costs one hash, and the queue repairs its heap once per round
// for each digram whose count changed. The engine is recycled from run
// to run through a free list, so a warm run allocates its output only.
//
// The udc baseline (update–decompress–compress) and Fig. 6's
// "decompress + compress" series are built on this package.
package treerepair

import (
	"slices"

	"repro/internal/digram"
	"repro/internal/freelist"
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
//
// CompressTree is safe for concurrent use; it only reads its input. It
// reuses its working tree from one run to the next: each run takes an
// emptied engine (node arena, slab, digram queue, occurrence lists) from
// a free list and hands it back once the unpruned grammar has been built
// from it, so a warm run allocates its output, not its working tree.
func CompressTree(st *xmltree.SymbolTable, root *xmltree.Node, opt Options) (*grammar.Grammar, *Stats) {
	e := engines.Get()
	g, stats := e.run(st, root, opt)
	engines.Put(e)
	prune(g, stats, st.Len())
	return g, stats
}

// Unpruned runs CompressTree up to its pruning phase and returns the
// grammar CompressTree hands to Prune, so that tests can check Prune on
// it.
func Unpruned(st *xmltree.SymbolTable, root *xmltree.Node, opt Options) *grammar.Grammar {
	e := engines.Get()
	g, _ := e.run(st, root, opt)
	engines.Put(e)
	return g
}

// engines holds the idle engines CompressTree reuses.
var engines = freelist.List[engine]{New: func() *engine { return new(engine) }}

// run runs the replacement rounds of CompressTree on a clone of st and
// returns the unpruned grammar and the run's stats, which share nothing
// with the engine. It leaves the engine empty.
func (e *engine) run(st *xmltree.SymbolTable, root *xmltree.Node, opt Options) (*grammar.Grammar, *Stats) {
	e.init(st.Clone(), root, opt.maxRank())
	for e.round() {
	}
	g, stats := e.toGrammar(), e.stats
	e.release()
	return g, stats
}

// prune runs the pruning phase on the unpruned grammar g and completes
// its stats. syms is the length of the input's symbol table.
func prune(g *grammar.Grammar, stats *Stats, syms int) {
	stats.PrunedRules = g.Prune()
	// The generated terminals are nonterminals now; drop them from the
	// table (the run worked on a clone of the input's).
	g.Syms.Truncate(syms)
	stats.FinalSize = g.Size()
}

// round replaces the most frequent digram, if one occurs at least twice,
// and reports whether it did.
func (e *engine) round() bool {
	d, _, ok := e.queue.Best()
	if !ok {
		return false
	}
	e.replaceAll(d)
	e.maybeRebuild()
	return true
}

// tnode is the mutable tree node used during compression. It holds no
// pointer, so the node arena and the slab are never scanned by the
// garbage collector. Nodes live in a flat arena and reference each other
// by int32 index. A node's n children and its n occurrence positions are
// one block of the engine's int32 slab at offset off: slab[off+i] is
// child i, and slab[off+n+i] is the node's position in the occurrence
// list of the digram (label, i+1, label(child i)) when the node is a
// stored occurrence parent for child edge i, and -1 otherwise.
type tnode struct {
	label  int32
	parent int32 // arena index of the parent; nilNode for the root
	idx    int32 // index within parent's children
	n      int32 // number of children
	off    int32 // slab offset of the children and occurrence positions
}

const nilNode = int32(-1)

type madeRule struct {
	term int32 // the generated terminal standing for X
	d    digram.Digram
}

// engine is the working state of one TreeRePair run. Between runs it is
// empty (release) and keeps every capacity.
type engine struct {
	st      *xmltree.SymbolTable
	root    int32
	maxRank int

	// nodes is the node arena and free the indices of released nodes,
	// which alloc hands out again: each replacement frees two nodes and
	// allocates one, so the arena never outgrows the input tree. A
	// *tnode from at stays valid until the next alloc.
	nodes []tnode
	free  []int32
	// slab holds every node's children and occurrence positions (see
	// tnode). A replaced node's block is not reused; the slab grows by
	// the children of the nodes the rounds create.
	slab []int32

	queue digram.Queue // each digram's occurrence-list length
	// occs lists, by the digram's queue slot, the arena indices of its
	// stored occurrence parents. It keeps its length across runs, so
	// that its inner lists keep their capacity.
	occs  [][]int32
	rules []madeRule
	snap  []int32 // reusable replacement snapshot
	ntOf  map[int32]int32

	nodeCount int // live nodes in the tree
	ruleEdges int // Σ edges of created rules
	churn     int // adds+removes since last full rebuild

	stats *Stats
}

// init converts root into the empty engine's working tree and registers
// every occurrence.
func (e *engine) init(st *xmltree.SymbolTable, root *xmltree.Node, maxRank int) {
	e.st, e.maxRank = st, maxRank
	e.stats = &Stats{InputEdges: root.Edges()}
	e.nodeCount = root.Size()
	e.nodes = slices.Grow(e.nodes, e.nodeCount)
	e.slab = slices.Grow(e.slab, 2*(e.nodeCount-1))
	e.root = e.convert(root, nilNode, 0)
	e.buildOccurrences()
}

// release empties the engine for the next run, keeping every capacity.
// Nothing of the engine is part of an output. The occurrence lists are
// emptied by the next run's occurrence build.
func (e *engine) release() {
	e.queue.Reset()
	clear(e.ntOf)
	*e = engine{
		nodes: e.nodes[:0],
		free:  e.free[:0],
		slab:  e.slab[:0],
		queue: e.queue,
		occs:  e.occs,
		rules: e.rules[:0],
		snap:  e.snap[:0],
		ntOf:  e.ntOf,
	}
}

func (e *engine) at(id int32) *tnode { return &e.nodes[id] }

// alloc returns the index of a node whose fields the caller sets.
func (e *engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.nodes = append(e.nodes, tnode{})
	return int32(len(e.nodes) - 1)
}

// releaseNode recycles a node. The caller must have removed every occurrence
// reference to it first; stale indices held elsewhere (e.g. a replacement
// snapshot) are harmless because the recycled node's label can never match
// the digram being replaced.
func (e *engine) releaseNode(id int32) { e.free = append(e.free, id) }

// block returns the slab offset of a new block for n children and their
// occurrence positions. Slices of the slab taken before are stale after.
func (e *engine) block(n int) int32 {
	off := len(e.slab)
	e.slab = slices.Grow(e.slab, 2*n)[:off+2*n]
	return int32(off)
}

// child returns the arena index of child i of v.
func (e *engine) child(v *tnode, i int) int32 { return e.slab[int(v.off)+i] }

// occAt returns the slab index of v's occurrence position for child edge i.
func occAt(v *tnode, i int) int { return int(v.off+v.n) + i }

func (e *engine) convert(n *xmltree.Node, parent, idx int32) int32 {
	id := e.alloc()
	k := int32(len(n.Children))
	var off int32
	if k > 0 {
		off = e.block(int(k))
	}
	*e.at(id) = tnode{label: n.Label.ID, parent: parent, idx: idx, n: k, off: off}
	for i, c := range n.Children {
		e.slab[off+k+int32(i)] = -1
		cid := e.convert(c, id, int32(i))
		e.slab[off+int32(i)] = cid
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
	return v.label == d.A && i < int(v.n) &&
		e.slab[occAt(v, i)] >= 0 && e.at(e.child(v, i)).label == d.B
}

// tryAdd registers the occurrence whose tree parent is vid for digram d,
// enforcing the non-overlap rule for equal-label digrams: the child must
// not already be a stored parent, and the parent must not already be a
// stored child (i.e. v sits at child index d.I of a stored parent).
func (e *engine) tryAdd(vid int32, d digram.Digram) {
	if !e.tracked(d) {
		return
	}
	v := e.at(vid)
	if d.EqualLabels() {
		if e.stored(e.at(e.child(v, d.I-1)), d) {
			return
		}
		if v.parent != nilNode && int(v.idx) == d.I-1 {
			if p := e.at(v.parent); p.label == d.A && e.stored(p, d) {
				return
			}
		}
	}
	o := occAt(v, d.I-1)
	if e.slab[o] >= 0 {
		return // already stored
	}
	id := e.queue.Slot(d.Key())
	if int(id) >= len(e.occs) {
		e.occs = append(e.occs, nil)
	}
	lst := &e.occs[id]
	e.slab[o] = int32(len(*lst))
	*lst = append(*lst, vid)
	e.churn++
	e.queue.SetSlot(id, float64(len(*lst)))
}

func (e *engine) removeOcc(vid int32, d digram.Digram) {
	v := e.at(vid)
	i := d.I - 1
	if i >= int(v.n) {
		return
	}
	o := occAt(v, i)
	pos := e.slab[o]
	if pos < 0 {
		return
	}
	// Callers construct d from the node's current labels, so a stored
	// position means v sits in exactly d's occurrence list.
	id := e.queue.Slot(d.Key())
	lst := e.occs[id]
	last := len(lst) - 1
	moved := lst[last]
	lst[pos] = moved
	e.slab[occAt(e.at(moved), i)] = pos
	e.occs[id] = lst[:last]
	e.slab[o] = -1
	e.churn++
	e.queue.SetSlot(id, float64(last))
}

// buildOccurrences scans the whole tree in postorder (bottom-up greedy,
// as TreeRePair does) and registers every non-overlapping occurrence.
// It zeroes every count and empties every list in place, keeping the
// digrams' slots. Intrusive positions are wiped preorder (parents before
// their subtrees) so the postorder re-registration never sees stale
// state.
func (e *engine) buildOccurrences() {
	e.queue.Zero()
	for i := range e.occs {
		e.occs[i] = e.occs[i][:0]
	}
	e.register(e.root)
	e.churn = 0
}

func (e *engine) register(vid int32) {
	v := *e.at(vid)
	n := int(v.n)
	occ := e.slab[int(v.off)+n : int(v.off)+2*n]
	for i := range occ {
		occ[i] = -1
	}
	for i := 0; i < n; i++ {
		e.register(e.child(&v, i))
	}
	for i := 0; i < n; i++ {
		e.tryAdd(vid, digram.Digram{A: v.label, I: i + 1, B: e.at(e.child(&v, i)).label})
	}
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
	s := e.occs[e.queue.Slot(d.Key())]
	if len(s) < 2 {
		return
	}
	x := e.st.Fresh("X", d.Rank(e.st))
	e.rules = append(e.rules, madeRule{term: x, d: d})
	e.ruleEdges += e.st.Rank(d.A) + e.st.Rank(d.B)

	e.snap = append(e.snap[:0], s...)
	for _, vid := range e.snap {
		if !e.stored(e.at(vid), d) {
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
	v := *e.at(vid)
	i := d.I - 1
	wid := e.child(&v, i)
	w := *e.at(wid)
	// Context removals: every stored occurrence that shares a node with
	// (v, w) is keyed by p (parent of v), by v, or by w.
	if v.parent != nilNode {
		p := e.at(v.parent)
		e.removeOcc(v.parent, digram.Digram{A: p.label, I: int(v.idx) + 1, B: v.label})
	}
	for j := 0; j < int(v.n); j++ {
		e.removeOcc(vid, digram.Digram{A: v.label, I: j + 1, B: e.at(e.child(&v, j)).label})
	}
	for j := 0; j < int(w.n); j++ {
		e.removeOcc(wid, digram.Digram{A: w.label, I: j + 1, B: e.at(e.child(&w, j)).label})
	}

	// Structural replacement: X(v.1..v.(i-1), w.1..w.n, v.(i+1)..v.m).
	n := int(v.n) - 1 + int(w.n)
	var off int32
	if n > 0 {
		off = e.block(n)
	}
	nc := e.slab[off : int(off)+n]
	k := copy(nc, e.slab[v.off:int(v.off)+i])
	k += copy(nc[k:], e.slab[w.off:w.off+w.n])
	copy(nc[k:], e.slab[int(v.off)+i+1:v.off+v.n])
	// v and w are fully detached (no occurrence references remain); let the
	// arena recycle them.
	e.releaseNode(vid)
	e.releaseNode(wid)
	xid := e.alloc()
	*e.at(xid) = tnode{label: x, parent: v.parent, idx: v.idx, n: int32(n), off: off}
	for j, c := range nc {
		e.slab[int(off)+n+j] = -1
		cn := e.at(c)
		cn.parent = xid
		cn.idx = int32(j)
	}
	if v.parent == nilNode {
		e.root = xid
	} else {
		e.slab[e.at(v.parent).off+v.idx] = xid
	}
	e.nodeCount--

	// Context additions: (p, X) and (X, c) digrams.
	if v.parent != nilNode {
		p := e.at(v.parent)
		e.tryAdd(v.parent, digram.Digram{A: p.label, I: int(v.idx) + 1, B: x})
	}
	for j := 0; j < n; j++ {
		e.tryAdd(xid, digram.Digram{A: x, I: j + 1, B: e.at(e.slab[int(off)+j]).label})
	}
}

// toGrammar converts the compressed tree plus the generated rules into an
// SLCF grammar: every generated terminal becomes a nonterminal whose rule
// body is its digram pattern (with nested generated terminals converted
// recursively).
func (e *engine) toGrammar() *grammar.Grammar {
	g := grammar.New(e.st)
	if e.ntOf == nil {
		e.ntOf = make(map[int32]int32, len(e.rules))
	}
	for _, mr := range e.rules {
		rhs := e.convertPattern(mr.d.PatternRHS(e.st))
		r := g.NewRule(mr.d.Rank(e.st), rhs)
		e.ntOf[mr.term] = r.ID
	}
	g.StartRule().RHS = e.convertTree(e.root)
	return g
}

func (e *engine) convertPattern(n *xmltree.Node) *xmltree.Node {
	if n.Label.Kind == xmltree.Terminal {
		if nt, ok := e.ntOf[n.Label.ID]; ok {
			n.Label = xmltree.Nonterm(nt)
		}
	}
	for _, c := range n.Children {
		e.convertPattern(c)
	}
	return n
}

func (e *engine) convertTree(vid int32) *xmltree.Node {
	v := e.at(vid)
	var lbl xmltree.Symbol
	if nt, ok := e.ntOf[v.label]; ok {
		lbl = xmltree.Nonterm(nt)
	} else {
		lbl = xmltree.Term(v.label)
	}
	n := xmltree.New(lbl)
	if v.n > 0 {
		n.Children = make([]*xmltree.Node, v.n)
		for i := range n.Children {
			n.Children[i] = e.convertTree(e.child(v, i))
		}
	}
	return n
}
