package core

import (
	"slices"

	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// usageCap saturates usage counts: exponentially compressing grammars
// generate trees with astronomically many nodes, and only the ordering of
// frequencies matters. It is the digram queue's count cap, so a usage
// weight never exceeds what a count can hold.
const usageCap = digram.MaxCount

// parentRef records the in-rule parent of a parameter node: the node and
// the 0-based child index the parameter occupies.
type parentRef struct {
	node *xmltree.Node
	idx  int
}

// ruleOccs caches everything the index knows about one rule. Occurrence
// generators are flat-hashed on the packed digram key instead of living in
// a per-rule Go map. The index recycles ruleOccs from run to run (see
// reset), so every slice here keeps its capacity.
type ruleOccs struct {
	gens         digram.Table[int32] // digram key → 1 + index into lists
	lists        []genList           // occurrence generators, one list per digram seen
	calls        []call              // callees, ascending by rule ID
	nodes        int                 // node count of the RHS
	paramParents []parentRef         // local parent of y1..yk
	usageApplied float64             // usage weight its gens contribute with

	// root and params are the rule's resolved interface: the terminal
	// node its root chain resolves to (TREECHILD, Algorithm 2) and, per
	// parameter y_i, the terminal node above it with the 1-based child
	// index of that edge (TREEPARENT, Algorithm 3).
	root   resolved
	params []resolved

	// pend lists nodes whose in-edge awaits evaluation at the next
	// refresh; cross lists nodes whose in-edge is an equal-label digram
	// across a call (re-checked whenever the rule is dirty, because the
	// overlap test reads another rule's generators).
	pend  []*xmltree.Node
	cross []*xmltree.Node

	// hasRes: the interface has been computed once. Per-refresh
	// bookkeeping: the interface labels at refresh start (prev, valid if
	// prevHad) and whether they were saved, the dirty mark and the
	// worklist mark.
	hasRes         bool
	prev           iface
	saved, prevHad bool
	dirty, queued  bool
}

// genList holds a rule's generators of one digram (empty once they are
// all gone; a list is never removed while its rule lives).
type genList struct {
	key   digram.Key
	nodes []*xmltree.Node
}

// genRef returns the generator list of digram k, adding an empty one on
// first sight. The pointer is valid until the next genRef.
func (ro *ruleOccs) genRef(k digram.Key) *[]*xmltree.Node {
	p := ro.gens.Ref(k)
	if *p == 0 {
		// Re-extend over a recycled list first: reset left it empty with
		// its capacity.
		if n := len(ro.lists); n < cap(ro.lists) {
			ro.lists = ro.lists[:n+1]
		} else {
			ro.lists = append(ro.lists, genList{})
		}
		ro.lists[len(ro.lists)-1].key = k
		*p = int32(len(ro.lists))
	}
	return &ro.lists[*p-1].nodes
}

// reset empties ro for another rule, zeroing every node reference and
// keeping every capacity.
func (ro *ruleOccs) reset() {
	ro.gens.Clear()
	for i := range ro.lists {
		clear(ro.lists[i].nodes)
		ro.lists[i].nodes = ro.lists[i].nodes[:0]
	}
	clear(ro.paramParents)
	clear(ro.params)
	clear(ro.pend)
	clear(ro.cross)
	*ro = ruleOccs{
		gens:         ro.gens,
		lists:        ro.lists[:0],
		calls:        ro.calls[:0],
		paramParents: ro.paramParents[:0],
		params:       ro.params[:0],
		pend:         ro.pend[:0],
		cross:        ro.cross[:0],
		prev:         iface{params: ro.prev.params[:0]},
	}
}

// call is one distinct callee of a rule and its number of call sites.
type call struct {
	rule int32
	n    int
}

// resolved is a fully resolved tree parent or tree child: the terminal
// node (somewhere in the grammar), its label, and — for parents — the
// child index of the edge.
type resolved struct {
	node  *xmltree.Node
	label int32
	idx   int // 1-based child index (parents only)
}

// iface is the label-level interface of a rule: the terminal its root
// chain resolves to and, per parameter, the terminal above it. When a
// rule's interface changes, every caller's digrams may change, so the
// callers' call-site edges are re-evaluated.
type iface struct {
	root   int32
	params []resolved
}

// ifaceOf copies the label-level interface of a rule into dst.
func (ro *ruleOccs) ifaceOf(dst *iface) {
	dst.root = ro.root.label
	dst.params = dst.params[:0]
	for _, p := range ro.params {
		dst.params = append(dst.params, resolved{label: p.label, idx: p.idx})
	}
}

// sameIface reports whether the rule's current interface has the labels
// of f.
func (ro *ruleOccs) sameIface(f *iface) bool {
	if ro.root.label != f.root || len(ro.params) != len(f.params) {
		return false
	}
	for i, p := range ro.params {
		if p.label != f.params[i].label || p.idx != f.params[i].idx {
			return false
		}
	}
	return true
}

// Node flags kept in nodeInfo.flags.
const (
	nodePending     uint8 = 1 << iota // in-edge awaits evaluation
	nodeDead                          // left the grammar this round
	nodeCross                         // in-edge is an equal-label digram across a call
	nodeCrossListed                   // present in the rule's cross list
)

// nodeInfo is the index's entry for one node of a live rule body: its
// place in the body, the digram it currently generates an occurrence of,
// and (for calls) its position in the callee's call-site list.
type nodeInfo struct {
	self   *xmltree.Node // the node this entry belongs to
	parent *xmltree.Node // nil for the rule root
	idx    int32         // child index within parent
	rule   int32         // rule whose body holds the node
	gen    digram.Key    // digram of the stored generator (0 = none)
	pos    int32         // position in the rule's generator list of gen
	site   int32         // position in the callee's call-site list
	flags  uint8
}

// nodeTable is a dense node → nodeInfo table indexed through Node.Aux.
// An entry speaks for node n only when entries[n.Aux].self == n: nodes
// move freely between owners without Aux being reset, so anything else
// means n is not registered here. Released slots are recycled.
type nodeTable struct {
	entries []nodeInfo
	free    []int32
}

func (t *nodeTable) get(n *xmltree.Node) *nodeInfo {
	if a := n.Aux; uint64(a) < uint64(len(t.entries)) && t.entries[a].self == n {
		return &t.entries[a]
	}
	return nil
}

// put records n's parent, registering n first if needed; fresh reports a
// new registration. The returned pointer is valid until the next put.
func (t *nodeTable) put(n, parent *xmltree.Node, idx int) (e *nodeInfo, fresh bool) {
	if e := t.get(n); e != nil {
		e.parent = parent
		e.idx = int32(idx)
		return e, false
	}
	var a int32
	if k := len(t.free); k > 0 {
		a = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		a = int32(len(t.entries))
		t.entries = append(t.entries, nodeInfo{})
	}
	n.Aux = a
	t.entries[a] = nodeInfo{self: n, parent: parent, idx: int32(idx)}
	return &t.entries[a], true
}

// release frees n's slot for reuse.
func (t *nodeTable) release(n *xmltree.Node) {
	t.entries[n.Aux] = nodeInfo{}
	t.free = append(t.free, n.Aux)
}

// reset empties the table, keeping its capacity.
func (t *nodeTable) reset() {
	clear(t.entries)
	t.entries = t.entries[:0]
	t.free = t.free[:0]
}

// occIndex maintains, incrementally across replacement rounds, the
// Algorithm 4 (RETRIEVEOCCS) state: per-rule digram occurrence generators,
// usage-weighted global frequencies, and the non-overlap bookkeeping for
// equal-label digrams. The global frequencies live in the digram queue,
// which is their only copy.
//
// The index owns a node table covering every node of every live rule:
// parent, generated digram and call-site position. Replacement rounds
// report each node they create, remove or re-parent (place / unlink), so
// a refresh re-evaluates only the edges next to those nodes, the
// call-site edges of callers whose callee interface changed, and the
// equal-label edges whose overlap test depends on them; a whole rule
// only when the round created it. Reference counts are the lengths of the per-rule call-site lists;
// a rule whose count reaches 0 is collected with a cascade.
//
// All per-rule state lives in dense rule-ID-indexed slices (rule IDs are
// dense and never reused), so per-rule lookups do no hashing.
//
// An index serves one run at a time: init builds it over a grammar and
// release empties it again keeping every capacity, so the next run
// reuses the tables, lists and ruleOccs instead of growing new ones.
type occIndex struct {
	g       *grammar.Grammar
	maxRank int

	tab     nodeTable
	perRule []*ruleOccs       // by rule ID; nil = deleted / never seen
	sites   [][]*xmltree.Node // by callee rule ID: every call node
	usage   []float64         // by rule ID
	queue   digram.Queue      // usage-weighted global frequency of every digram
	nodes   int               // summed RHS node count of all live rules

	// roSlab holds every ruleOccs handed out, the first roUsed of them
	// to this run (in addRule order); release recycles them.
	roSlab []*ruleOccs
	roUsed int

	// holders lists, by the digram's queue slot, the rules holding at
	// least one of its generators (unordered; a rule joins on its first
	// generator of the digram and leaves with its last or when it is
	// collected).
	holders [][]int32

	dead []*xmltree.Node // nodes unlinked since the last round end
	zero []int32         // rules whose reference count dropped to 0

	// round numbers replacement rounds; refs0 holds a rule's reference
	// count at the start of round refs0At (saved on its first change).
	round          int32
	refs0, refs0At []int32

	// orderValid: topoBuf holds topoAntiSL's result for the current call
	// graph (from a refresh until the next round edits a rule).
	orderValid bool

	// resolutions counts in-edge evaluations (each resolves one tree
	// parent and one tree child); tests use it to pin a round's work to
	// what the round changed.
	resolutions int

	// refresh scratch, reused across rounds
	work, resTouched, dirtyRules []int32
	topoState                    []uint8
	topoBuf                      []int32
	pathBuf                      []int32
	keyBuf                       []keyed
	withGens, edited, deleted    []int32
}

func newOccIndex(g *grammar.Grammar, maxRank int) *occIndex {
	ix := &occIndex{}
	ix.init(g, maxRank)
	return ix
}

// init builds the index over every rule of g. The index must be new or
// released.
func (ix *occIndex) init(g *grammar.Grammar, maxRank int) {
	ix.g, ix.maxRank = g, maxRank
	ix.grow()
	ids := ix.edited[:0] // the build refreshes every rule as edited
	g.Rules(func(r *grammar.Rule) { ids = append(ids, r.ID) })
	ix.edited = ids
	for _, rid := range ids {
		ix.addRule(rid)
	}
	// Rules no live rule calls are unreachable (the start rule aside);
	// they are collected at the end of the first round, as the
	// reachability sweep they replace did.
	for _, rid := range ids {
		if rid != g.Start && len(ix.sites[rid]) == 0 {
			ix.zero = append(ix.zero, rid)
		}
	}
	ix.refresh(ids)
}

// release empties the index for the next run, zeroing every node and
// grammar reference and keeping every capacity. The lists of sites and
// holders keep their length, so that their inner lists keep theirs.
func (ix *occIndex) release() {
	ix.tab.reset()
	for _, ro := range ix.roSlab[:ix.roUsed] {
		ro.reset()
	}
	ix.roUsed = 0
	clear(ix.perRule)
	for i := range ix.sites {
		clear(ix.sites[i])
		ix.sites[i] = ix.sites[i][:0]
	}
	for i := range ix.holders {
		ix.holders[i] = ix.holders[i][:0]
	}
	ix.queue.Reset()
	clear(ix.dead)
	clear(ix.keyBuf[:cap(ix.keyBuf)])
	*ix = occIndex{
		tab:        ix.tab,
		perRule:    ix.perRule[:0],
		sites:      ix.sites,
		roSlab:     ix.roSlab,
		usage:      ix.usage[:0],
		queue:      ix.queue,
		holders:    ix.holders,
		dead:       ix.dead[:0],
		zero:       ix.zero[:0],
		refs0:      ix.refs0[:0],
		refs0At:    ix.refs0At[:0],
		work:       ix.work[:0],
		resTouched: ix.resTouched[:0],
		dirtyRules: ix.dirtyRules[:0],
		topoState:  ix.topoState[:0],
		topoBuf:    ix.topoBuf[:0],
		pathBuf:    ix.pathBuf[:0],
		keyBuf:     ix.keyBuf[:0],
		withGens:   ix.withGens[:0],
		edited:     ix.edited[:0],
		deleted:    ix.deleted[:0],
	}
}

// grow sizes every dense table for the rule IDs the grammar has assigned
// so far (replacement rounds create rules).
func (ix *occIndex) grow() {
	n := int(ix.g.MaxRuleID())
	ix.perRule = grammar.GrowTo(ix.perRule, n)
	ix.sites = grammar.GrowTo(ix.sites, n)
	ix.usage = grammar.GrowTo(ix.usage, n)
	ix.topoState = grammar.GrowTo(ix.topoState, n)
}

// rulesWithGenerators returns the IDs of rules holding generators of d,
// in ascending rule-ID order, in a slice the next call reuses.
func (ix *occIndex) rulesWithGenerators(d digram.Digram) []int32 {
	ix.withGens = append(ix.withGens[:0], *ix.holdersOf(d.Key())...)
	slices.Sort(ix.withGens)
	return ix.withGens
}

// holdersOf returns the holder list of digram k.
func (ix *occIndex) holdersOf(k digram.Key) *[]int32 {
	id := int(ix.queue.Slot(k))
	ix.holders = grammar.GrowTo(ix.holders, id+1)
	return &ix.holders[id]
}

// dropHolder removes rule rid from the holders of digram k.
func (ix *occIndex) dropHolder(k digram.Key, rid int32) {
	hp := ix.holdersOf(k)
	i := slices.Index(*hp, rid)
	last := len(*hp) - 1
	(*hp)[i] = (*hp)[last]
	*hp = (*hp)[:last]
}

// generators returns the generator nodes of d within rule rid.
func (ix *occIndex) generators(rid int32, d digram.Digram) []*xmltree.Node {
	if ro := ix.perRule[rid]; ro != nil {
		if i, _ := ro.gens.Get(d.Key()); i > 0 {
			return ro.lists[i-1].nodes
		}
	}
	return nil
}

// beginRound starts a replacement round: refCount0 answers with the
// reference counts as they are now until the next beginRound.
func (ix *occIndex) beginRound() { ix.round++ }

// refCount0 returns |ref_G(Q)| at the start of the round (0 for rules
// born since). Algorithm 8's export condition must see the pre-round
// counts: a rule referenced from several sites keeps (or shares) its
// fragments via export rules even when every one of those sites inlines
// a version during this round — evaluating against live counts would
// let the last inline copy the full body and double the grammar level
// by level.
func (ix *occIndex) refCount0(id int32) int {
	if int(id) < len(ix.refs0At) && ix.refs0At[id] == ix.round {
		return int(ix.refs0[id])
	}
	if int(id) < len(ix.sites) {
		return len(ix.sites[id])
	}
	return 0
}

// saveRef0 keeps callee c's round-start reference count before its first
// change of the round.
func (ix *occIndex) saveRef0(c int32) {
	ix.refs0 = grammar.GrowTo(ix.refs0, int(c)+1)
	ix.refs0At = grammar.GrowTo(ix.refs0At, int(c)+1)
	if ix.refs0At[c] != ix.round {
		ix.refs0At[c] = ix.round
		ix.refs0[c] = int32(len(ix.sites[c]))
	}
}

// addRule registers every node of rule rid (a rule the index has not
// seen: the initial grammar or an export rule born this round) and
// queues all its edges for evaluation.
func (ix *occIndex) addRule(rid int32) {
	ix.grow()
	r := ix.g.Rule(rid)
	if ix.roUsed == len(ix.roSlab) {
		ix.roSlab = append(ix.roSlab, &ruleOccs{})
	}
	ro := ix.roSlab[ix.roUsed]
	ix.roUsed++
	ro.paramParents = grammar.GrowTo(ro.paramParents, r.Rank)
	ro.params = grammar.GrowTo(ro.params, r.Rank)
	ix.perRule[rid] = ro
	ix.placeAll(r.RHS, nil, -1, rid)
}

// placeAll places every node of the subtree rooted at n, in preorder.
func (ix *occIndex) placeAll(n, parent *xmltree.Node, idx int, rid int32) {
	ix.place(n, parent, idx, rid)
	for i, c := range n.Children {
		ix.placeAll(c, n, i, rid)
	}
}

// place records that node n now sits at child index idx under parent in
// rule rid — a node the round created, or one it moved — and queues its
// in-edge for evaluation.
func (ix *occIndex) place(n, parent *xmltree.Node, idx int, rid int32) {
	ix.orderValid = false
	e, fresh := ix.tab.put(n, parent, idx)
	ro := ix.perRule[rid]
	if fresh {
		e.rule = rid
		ro.nodes++
		ix.nodes++
		if n.Label.Kind == xmltree.Nonterminal {
			ix.addSite(n, e, ro)
		}
	}
	if n.Label.Kind == xmltree.Parameter {
		ro.paramParents[n.Label.ID-1] = parentRef{node: parent, idx: idx}
	}
	ix.markPending(n, e, ro)
}

// unlink records that node n left its rule body. Its generator is
// dropped at the round's end (flushDead): the round may still be reading
// the generator lists.
func (ix *occIndex) unlink(n *xmltree.Node) {
	ix.orderValid = false
	e := ix.tab.get(n)
	e.flags |= nodeDead
	ro := ix.perRule[e.rule]
	ro.nodes--
	ix.nodes--
	if n.Label.Kind == xmltree.Nonterminal {
		ix.removeSite(n, e, ro)
	}
	ix.dead = append(ix.dead, n)
}

func (ix *occIndex) markPending(n *xmltree.Node, e *nodeInfo, ro *ruleOccs) {
	if e.flags&nodePending == 0 {
		e.flags |= nodePending
		ro.pend = append(ro.pend, n)
	}
}

// addSite registers call node n (held by the rule of ro) with its callee.
func (ix *occIndex) addSite(n *xmltree.Node, e *nodeInfo, ro *ruleOccs) {
	c := n.Label.ID
	ix.sites = grammar.GrowTo(ix.sites, int(c)+1) // c may be born this round
	ix.saveRef0(c)
	e.site = int32(len(ix.sites[c]))
	ix.sites[c] = append(ix.sites[c], n)
	i, ok := slices.BinarySearchFunc(ro.calls, c, func(x call, c int32) int { return int(x.rule - c) })
	if ok {
		ro.calls[i].n++
	} else {
		ro.calls = slices.Insert(ro.calls, i, call{rule: c, n: 1})
	}
}

// removeSite unregisters call node n; a callee left without call sites
// becomes a collection candidate.
func (ix *occIndex) removeSite(n *xmltree.Node, e *nodeInfo, ro *ruleOccs) {
	c := n.Label.ID
	ix.saveRef0(c)
	s := ix.sites[c]
	last := len(s) - 1
	if int(e.site) != last {
		s[e.site] = s[last]
		ix.tab.get(s[last]).site = e.site
	}
	s[last] = nil
	ix.sites[c] = s[:last]
	if last == 0 {
		ix.zero = append(ix.zero, c)
	}
	i, _ := slices.BinarySearchFunc(ro.calls, c, func(x call, c int32) int { return int(x.rule - c) })
	if ro.calls[i].n--; ro.calls[i].n == 0 {
		ro.calls = slices.Delete(ro.calls, i, i+1)
	}
}

func (ix *occIndex) addCount(d digram.Digram, delta float64) {
	if delta != 0 {
		ix.queue.Add(d, delta)
	}
}

// addGen stores node n as a generator of digram k in its rule.
func (ix *occIndex) addGen(ro *ruleOccs, n *xmltree.Node, e *nodeInfo, k digram.Key) {
	gp := ro.genRef(k)
	if len(*gp) == 0 {
		hp := ix.holdersOf(k)
		*hp = append(*hp, e.rule)
	}
	e.gen = k
	e.pos = int32(len(*gp))
	*gp = append(*gp, n)
	ix.addCount(k.Digram(), ro.usageApplied)
}

// dropGen removes the node of entry e from its generator list.
func (ix *occIndex) dropGen(ro *ruleOccs, e *nodeInfo) {
	gp := ro.genRef(e.gen)
	s := *gp
	last := len(s) - 1
	if int(e.pos) != last {
		s[e.pos] = s[last]
		ix.tab.get(s[last]).pos = e.pos
	}
	s[last] = nil
	*gp = s[:last]
	if last == 0 {
		ix.dropHolder(e.gen, e.rule)
	}
	ix.addCount(e.gen.Digram(), -ro.usageApplied)
	e.gen = 0
}

// isGen reports whether node n is a stored generator of digram k — for
// equal-label digrams, the overlap test of Algorithm 4 line 11.
func (ix *occIndex) isGen(n *xmltree.Node, k digram.Key) bool {
	e := ix.tab.get(n)
	return e != nil && e.gen == k
}

// flushDead drops the generators of every node unlinked this round and
// frees their slots. Called once the round no longer reads generator
// lists.
func (ix *occIndex) flushDead() {
	for _, n := range ix.dead {
		e := ix.tab.get(n)
		if e.gen != 0 {
			ix.dropGen(ix.perRule[e.rule], e)
		}
		ix.tab.release(n)
	}
	clear(ix.dead)
	ix.dead = ix.dead[:0]
}

// collect deletes every rule left without call sites (the start rule
// aside), cascading into callees that lose their last call site, and
// returns the deleted IDs in ascending order. This is exactly the set a
// reachability sweep from the start rule would delete: the call relation
// is acyclic and the counts are exact.
func (ix *occIndex) collect() []int32 {
	deleted := ix.deleted[:0]
	for len(ix.zero) > 0 {
		rid := ix.zero[len(ix.zero)-1]
		ix.zero = ix.zero[:len(ix.zero)-1]
		if rid == ix.g.Start || ix.perRule[rid] == nil || len(ix.sites[rid]) > 0 {
			continue
		}
		ix.deleteRule(rid)
		deleted = append(deleted, rid)
	}
	slices.Sort(deleted)
	ix.deleted = deleted
	return deleted
}

// deleteRule removes rule rid from the grammar and the index.
func (ix *occIndex) deleteRule(rid int32) {
	ix.orderValid = false
	ro := ix.perRule[rid]
	for _, l := range ro.lists {
		if len(l.nodes) > 0 {
			ix.addCount(l.key.Digram(), -ro.usageApplied*float64(len(l.nodes)))
			ix.dropHolder(l.key, rid)
		}
	}
	ix.releaseAll(ix.g.Rule(rid).RHS, ro)
	ix.nodes -= ro.nodes
	ix.perRule[rid] = nil
	ix.g.DeleteRule(rid)
}

// releaseAll frees the table slots of the subtree rooted at n (in rule
// ro), leaving the callees' call-site lists on the way.
func (ix *occIndex) releaseAll(n *xmltree.Node, ro *ruleOccs) {
	if n.Label.Kind == xmltree.Nonterminal {
		ix.removeSite(n, ix.tab.get(n), ro)
	}
	ix.tab.release(n)
	for _, c := range n.Children {
		ix.releaseAll(c, ro)
	}
}

// resolveChildOf resolves the tree child of a generator node: the node
// itself if terminal, else the callee's root chain (TREECHILD, Alg. 2).
func (ix *occIndex) resolveChildOf(n *xmltree.Node) resolved {
	if n.Label.Kind == xmltree.Terminal {
		return resolved{node: n, label: n.Label.ID}
	}
	return ix.perRule[n.Label.ID].root
}

// resolveParentOf resolves the tree parent of a node at child index i
// (0-based) under p: p itself if terminal, else the terminal above the
// callee's parameter y_{i+1} (TREEPARENT's upward chain, Alg. 3).
func (ix *occIndex) resolveParentOf(p *xmltree.Node, i int) resolved {
	if p.Label.Kind == xmltree.Terminal {
		return resolved{node: p, label: p.Label.ID, idx: i + 1}
	}
	return ix.perRule[p.Label.ID].params[i]
}

// resolveRule recomputes the interface of rule rid from its own root and
// parameter parents and its callees' stored interfaces, and reports
// whether anything (node or label) changed.
func (ix *occIndex) resolveRule(rid int32) bool {
	ro := ix.perRule[rid]
	root := ix.g.Rule(rid).RHS
	changed := false
	nr := ix.resolveChildOf(root)
	if nr != ro.root {
		ro.root = nr
		changed = true
	}
	for i, pr := range ro.paramParents {
		np := ix.resolveParentOf(pr.node, pr.idx)
		if np != ro.params[i] {
			ro.params[i] = np
			changed = true
		}
	}
	return changed
}

// refresh brings the index up to date after a replacement round that
// edited or created the given rules (rules it deleted are already gone,
// see collect). Passing every rule ID performs the initial build.
func (ix *occIndex) refresh(edited []int32) {
	ix.grow()

	// Interfaces: recompute the edited rules', then, transitively, the
	// callers' of every rule whose resolution changed. The worklist may
	// visit a caller before one of its callees settles; the callee's
	// change re-queues it.
	work := ix.work[:0]
	push := func(rid int32) {
		if ro := ix.perRule[rid]; ro != nil && !ro.queued {
			ro.queued = true
			work = append(work, rid)
		}
	}
	for _, rid := range edited {
		push(rid)
	}
	touched := ix.resTouched[:0]
	for i := 0; i < len(work); i++ {
		rid := work[i]
		ro := ix.perRule[rid]
		ro.queued = false
		if !ro.saved {
			ro.saved = true
			ro.prevHad = ro.hasRes
			ro.ifaceOf(&ro.prev)
			touched = append(touched, rid)
		}
		if !ix.resolveRule(rid) && ro.hasRes {
			continue
		}
		ro.hasRes = true
		for _, c := range ix.sites[rid] {
			push(ix.tab.get(c).rule)
		}
	}
	ix.work = work

	// Dirty rules: the edited ones, plus every caller of a rule whose
	// interface labels changed; for those, the call-site edges (the call
	// node's in-edge and its argument edges) are re-evaluated.
	dirty := ix.dirtyRules[:0]
	mark := func(rid int32) {
		if ro := ix.perRule[rid]; !ro.dirty {
			ro.dirty = true
			dirty = append(dirty, rid)
		}
	}
	for _, rid := range edited {
		if ix.perRule[rid] != nil {
			mark(rid)
		}
	}
	for _, rid := range touched {
		ro := ix.perRule[rid]
		ro.saved = false
		if ro.prevHad && ro.sameIface(&ro.prev) {
			continue
		}
		for _, c := range ix.sites[rid] {
			e := ix.tab.get(c)
			cro := ix.perRule[e.rule]
			mark(e.rule)
			ix.markPending(c, e, cro)
			for _, a := range c.Children {
				ix.markPending(a, ix.tab.get(a), cro)
			}
		}
	}
	ix.resTouched = touched[:0]

	// Equal-label edges across calls read another rule's generators in
	// their overlap test, so a dirty rule re-checks all of them.
	for _, rid := range dirty {
		ro := ix.perRule[rid]
		keep := ro.cross[:0]
		for _, n := range ro.cross {
			e := ix.tab.get(n)
			if e == nil || e.flags&nodeCross == 0 {
				if e != nil {
					e.flags &^= nodeCrossListed
				}
				continue
			}
			keep = append(keep, n)
			ix.markPending(n, e, ro)
		}
		clear(ro.cross[len(keep):])
		ro.cross = keep
	}

	// Evaluate in anti-SL order (callees first): an equal-label overlap
	// test reads generators of callees, which must be current.
	order := ix.topoAntiSL()
	for _, rid := range order {
		ro := ix.perRule[rid]
		if !ro.dirty {
			continue
		}
		ro.dirty = false
		for _, n := range ro.pend {
			ix.settle(n)
		}
		clear(ro.pend)
		ro.pend = ro.pend[:0]
	}
	ix.dirtyRules = dirty[:0]

	ix.refreshUsage(order)
}

// settle evaluates n's in-edge if it is still pending, settling a
// pending explicit parent first (its overlap status decides n's).
func (ix *occIndex) settle(n *xmltree.Node) {
	e := ix.tab.get(n)
	if e == nil || e.flags&nodePending == 0 {
		return
	}
	if p := e.parent; p != nil && p.Label.Kind == xmltree.Terminal {
		ix.settle(p)
		if e.flags&nodePending == 0 {
			return // re-evaluated by the parent's propagation
		}
	}
	ix.eval(n, e)
}

// eval re-derives the generator stored for node n's in-edge (Algorithm
// 4's inner loop, lines 3–12, for one edge) and updates the global
// counts. A change of n's equal-label overlap status re-evaluates the
// chain child whose overlap test reads it.
func (ix *occIndex) eval(n *xmltree.Node, e *nodeInfo) {
	e.flags &^= nodePending
	if e.flags&nodeDead != 0 {
		return
	}
	ix.resolutions++
	ro := ix.perRule[e.rule]
	var k digram.Key
	cross := false
	if p := e.parent; p != nil && n.Label.Kind != xmltree.Parameter {
		child := ix.resolveChildOf(n)
		parent := ix.resolveParentOf(p, int(e.idx))
		d := digram.Digram{A: parent.label, I: parent.idx, B: child.label}
		if d.Rank(ix.g.Syms) <= ix.maxRank {
			switch dk := d.Key(); {
			case !d.EqualLabels():
				k = dk
			case n.Label.Kind == xmltree.Terminal:
				// Equal-label digrams: never across a rule root
				// (nonterminal generator), and never overlapping a
				// stored occurrence.
				cross = p.Label.Kind == xmltree.Nonterminal
				if !ix.isGen(parent.node, dk) {
					k = dk
				}
			}
		}
	}
	if cross {
		e.flags |= nodeCross
		if e.flags&nodeCrossListed == 0 {
			e.flags |= nodeCrossListed
			ro.cross = append(ro.cross, n)
		}
	} else {
		e.flags &^= nodeCross
	}
	old := e.gen
	if old == k {
		return
	}
	if old != 0 {
		ix.dropGen(ro, e)
	}
	if k != 0 {
		ix.addGen(ro, n, e, k)
	}
	ix.propagate(n, old)
	ix.propagate(n, k)
}

// propagate re-evaluates the edge whose equal-label overlap test reads
// n's membership in digram k: n's child on the chain of k.
func (ix *occIndex) propagate(n *xmltree.Node, k digram.Key) {
	if k == 0 {
		return
	}
	d := k.Digram()
	if !d.EqualLabels() || d.I > len(n.Children) {
		return
	}
	if c := n.Children[d.I-1]; c.Label.Kind == xmltree.Terminal {
		ix.eval(c, ix.tab.get(c))
	}
}

// topoAntiSL orders live rules callee-before-caller using the cached
// sorted callee lists, starting a depth-first search from each rule in
// creation order. The returned slice is reused by the next call; while
// no rule body changed since, the next call returns it as is.
func (ix *occIndex) topoAntiSL() []int32 {
	if ix.orderValid {
		return ix.topoBuf
	}
	ix.orderValid = true
	clear(ix.topoState)
	ix.topoBuf = ix.topoBuf[:0]
	ix.g.Rules(func(r *grammar.Rule) { ix.visitTopo(r.ID) })
	return ix.topoBuf
}

// visitTopo appends rule id to topoBuf after its callees, unless the
// current search has reached it already.
func (ix *occIndex) visitTopo(id int32) {
	if ix.topoState[id] != 0 {
		return
	}
	ix.topoState[id] = 1
	for _, c := range ix.perRule[id].calls {
		ix.visitTopo(c.rule)
	}
	ix.topoState[id] = 2
	ix.topoBuf = append(ix.topoBuf, id)
}

// refreshUsage recomputes usage_G for all rules from the callee lists and
// adjusts every affected digram count by the usage delta.
func (ix *occIndex) refreshUsage(antiSL []int32) {
	newUsage := ix.usage
	clear(newUsage)
	newUsage[ix.g.Start] = 1
	// SL order: reverse of anti-SL.
	for i := len(antiSL) - 1; i >= 0; i-- {
		rid := antiSL[i]
		u := newUsage[rid]
		if u == 0 {
			continue
		}
		for _, c := range ix.perRule[rid].calls {
			nu := newUsage[c.rule] + u*float64(c.n)
			if nu > usageCap {
				nu = usageCap
			}
			newUsage[c.rule] = nu
		}
	}
	for _, rid := range antiSL {
		ro := ix.perRule[rid]
		delta := newUsage[rid] - ro.usageApplied
		if delta != 0 {
			for _, l := range ro.lists {
				if len(l.nodes) > 0 {
					ix.addCount(l.key.Digram(), delta*float64(len(l.nodes)))
				}
			}
			ro.usageApplied = newUsage[rid]
		}
	}
}

// keyed is a node with its child-index path from the rule root.
type keyed struct {
	n    *xmltree.Node
	path []int32
}

// preorder sorts nodes of one rule body into preorder, comparing the
// child-index paths from the rule root (an ancestor sorts first).
func (ix *occIndex) preorder(nodes []*xmltree.Node) {
	buf := ix.pathBuf[:0]
	ks := grammar.GrowTo(ix.keyBuf[:0], len(nodes))
	for i, n := range nodes {
		start := len(buf)
		for v := n; ; {
			e := ix.tab.get(v)
			if e.parent == nil {
				break
			}
			buf = append(buf, e.idx)
			v = e.parent
		}
		slices.Reverse(buf[start:])
		ks[i] = keyed{n: n, path: buf[start:len(buf):len(buf)]}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return slices.Compare(a.path, b.path) })
	for i := range ks {
		nodes[i] = ks[i].n
	}
	ix.pathBuf = buf[:0]
	ix.keyBuf = ks[:0]
}
