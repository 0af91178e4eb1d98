package core

import (
	"slices"
	"sort"
	"strconv"

	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// flagSet is the paper's version key F ⊆ {r, y1..yk}: which nodes of a
// rule body must be isolated (made terminally available) before the body
// is inlined at a call site — r for the root (tree-child resolution) and
// y_i for the parent of parameter i (tree-parent resolution).
type flagSet struct {
	r  bool
	ys []int // sorted, 1-based parameter indices
}

func (f *flagSet) addY(i int) {
	pos := sort.SearchInts(f.ys, i)
	if pos < len(f.ys) && f.ys[pos] == i {
		return
	}
	f.ys = append(f.ys, 0)
	copy(f.ys[pos+1:], f.ys[pos:])
	f.ys[pos] = i
}

// appendKey appends the flag set's canonical text ("r,y1,y3") to b.
func (f *flagSet) appendKey(b []byte) []byte {
	if f.r {
		b = append(b, 'r')
	}
	for _, y := range f.ys {
		b = strconv.AppendInt(append(b, ",y"...), int64(y), 10)
	}
	return b
}

// scratch owns the allocation state shared by every replacement round of
// one compression run: the node arena the round's tree surgery allocates
// from, the per-rule flag/splice maps (emptied, not reallocated, between
// rules), and pools for the maps and editors that the recursive version
// construction needs one instance of per activation. release empties it
// for the next run, keeping every capacity.
//
// The per-rule and per-round maps are emptied by deleting the keys that
// were set, never by clear: a clear costs the map's capacity, which the
// largest rule or round of the run has grown, and most rules set a
// handful of keys.
type scratch struct {
	arena    *xmltree.Arena
	flags    map[*xmltree.Node]*flagSet      // processRule flag accumulation
	spliced  map[*xmltree.Node]*xmltree.Node // processRule inline records
	order    []*xmltree.Node                 // processRule preorder buffer
	anchors  []*xmltree.Node                 // processRule isolated occurrences
	residual []*xmltree.Node                 // processRule anchors needing more inlining
	ruleEd   editor                          // processRule's index-backed editor
	flagMaps []map[*xmltree.Node]*flagSet
	boolMaps []map[*xmltree.Node]bool
	editors  []*editor

	// Per-round dense rule-ID tables (born/edited flags, topo
	// positions), pooled so a compression run does not reallocate and
	// re-zero O(MaxRuleID) slices on every digram round.
	born, edited []bool
	pos          []int

	// The round's processed versions by versionKey, the buffer the key
	// is built in, and the flag sets the round hands out (the first
	// nFlags of flagSets).
	versions map[string]*xmltree.Node
	vkeys    []string // the keys set in versions this round
	keyBuf   []byte
	flagSets []*flagSet
	nFlags   int

	rep replacer // the round's replacer
}

// resetBools grows a pooled dense table to length n and zeroes it.
func resetBools(s []bool, n int) []bool {
	s = grammar.GrowTo(s, n)
	clear(s)
	return s
}

func newScratch() *scratch {
	return &scratch{
		arena:    &xmltree.Arena{},
		flags:    make(map[*xmltree.Node]*flagSet),
		spliced:  make(map[*xmltree.Node]*xmltree.Node),
		versions: make(map[string]*xmltree.Node),
	}
}

// newFlags returns an empty flag set that serves until the round ends.
func (sc *scratch) newFlags() *flagSet {
	if sc.nFlags == len(sc.flagSets) {
		sc.flagSets = append(sc.flagSets, &flagSet{})
	}
	f := sc.flagSets[sc.nFlags]
	sc.nFlags++
	f.r, f.ys = false, f.ys[:0]
	return f
}

// rootFlags returns the flag set {r}; paramFlags returns {y_i}.
func (sc *scratch) rootFlags() *flagSet {
	f := sc.newFlags()
	f.r = true
	return f
}

func (sc *scratch) paramFlags(i int) *flagSet {
	f := sc.newFlags()
	f.ys = append(f.ys, i)
	return f
}

// versionKey returns the key of rule rid's version for flag set fs in the
// versions map, in keyBuf (valid until the next versionKey).
func (sc *scratch) versionKey(rid int32, fs *flagSet) []byte {
	sc.keyBuf = fs.appendKey(append(strconv.AppendInt(sc.keyBuf[:0], int64(rid), 10), ':'))
	return sc.keyBuf
}

// release empties the scratch for the next run: it zeroes the arena and
// drops every node reference, keeping every capacity. No node the arena
// handed out may still be in use.
func (sc *scratch) release() {
	sc.arena.Reset()
	clear(sc.flags)
	clear(sc.spliced)
	clear(sc.versions)
	clear(sc.vkeys)
	sc.vkeys = sc.vkeys[:0]
	clear(sc.order[:cap(sc.order)])
	clear(sc.anchors[:cap(sc.anchors)])
	clear(sc.residual[:cap(sc.residual)])
	sc.order, sc.anchors, sc.residual = sc.order[:0], sc.anchors[:0], sc.residual[:0]
	sc.ruleEd = editor{}
	sc.born, sc.edited, sc.pos = sc.born[:0], sc.edited[:0], sc.pos[:0]
	sc.nFlags = 0
	sc.rep = replacer{}
}

// getEditor opens a pooled template editor on a copy of rule's body in
// the arena.
func (sc *scratch) getEditor(rule *grammar.Rule) *editor {
	var ed *editor
	if n := len(sc.editors); n > 0 {
		ed = sc.editors[n-1]
		sc.editors = sc.editors[:n-1]
	} else {
		ed = &editor{}
	}
	ed.work = grammar.Rule{ID: rule.ID, Rank: rule.Rank, RHS: rule.RHS.CopyIn(sc.arena)}
	ed.reset(&ed.work, sc.arena)
	return ed
}

func (sc *scratch) putEditor(ed *editor) {
	ed.rule = nil
	ed.ix = nil
	ed.work = grammar.Rule{}
	// Zero the entries so a pooled editor does not pin the last rule's
	// nodes; capacity is kept for the next visit.
	ed.own.reset()
	clear(ed.params)
	clear(ed.order)
	clear(ed.marks)
	sc.editors = append(sc.editors, ed)
}

func (sc *scratch) getFlagMap() map[*xmltree.Node]*flagSet {
	if n := len(sc.flagMaps); n > 0 {
		m := sc.flagMaps[n-1]
		sc.flagMaps = sc.flagMaps[:n-1]
		return m
	}
	return make(map[*xmltree.Node]*flagSet)
}

func (sc *scratch) putFlagMap(m map[*xmltree.Node]*flagSet) {
	clear(m)
	sc.flagMaps = append(sc.flagMaps, m)
}

func (sc *scratch) getBoolMap() map[*xmltree.Node]bool {
	if n := len(sc.boolMaps); n > 0 {
		m := sc.boolMaps[n-1]
		sc.boolMaps = sc.boolMaps[:n-1]
		return m
	}
	return make(map[*xmltree.Node]bool)
}

func (sc *scratch) putBoolMap(m map[*xmltree.Node]bool) {
	clear(m)
	sc.boolMaps = append(sc.boolMaps, m)
}

// replacer executes one digram-replacement round over the grammar:
// Algorithm 5 (non-optimized, plain DependencyDAG inlining) or
// Algorithms 6–8 (optimized, ReplacementDAG with fragment export).
type replacer struct {
	g         *grammar.Grammar
	ix        *occIndex
	sc        *scratch
	d         digram.Digram
	x         int32 // generated terminal standing for the new nonterminal X
	optimized bool

	// born marks export rules created during this round (dense, grown as
	// rules appear). They are always referenced from at least one
	// surviving body, so inlining one of their fragments without export
	// would duplicate it — they get the export treatment unconditionally
	// (their round-start reference count is 0).
	born     []bool
	versions map[string]*xmltree.Node // processed version bodies (templates)
	edited   []bool                   // rules whose bodies changed or were created
	replaced int
}

// newReplacer starts a round: the replacer it returns is the scratch's
// own and serves until the next newReplacer on the same scratch.
func newReplacer(g *grammar.Grammar, ix *occIndex, sc *scratch, d digram.Digram, x int32, optimized bool) *replacer {
	n := int(g.MaxRuleID())
	sc.born = resetBools(sc.born, n)
	sc.edited = resetBools(sc.edited, n)
	for _, k := range sc.vkeys {
		delete(sc.versions, k)
	}
	sc.vkeys = sc.vkeys[:0]
	sc.nFlags = 0
	ix.beginRound()
	sc.rep = replacer{
		g:         g,
		ix:        ix,
		sc:        sc,
		d:         d,
		x:         x,
		optimized: optimized,
		born:      sc.born,
		versions:  sc.versions,
		edited:    sc.edited,
	}
	return &sc.rep
}

func (r *replacer) isBorn(id int32) bool {
	return int(id) < len(r.born) && r.born[id]
}

func (r *replacer) markEdited(id int32) {
	r.edited = grammar.GrowTo(r.edited, int(id)+1)
	r.edited[id] = true
}

// run replaces every tracked occurrence of the digram. It returns the set
// of edited/created rules and the rules deleted because they became
// unreachable (paper: "If afterwards |ref_G(Q)| = 0, we delete rule Q"),
// in index buffers that serve until the next round.
func (r *replacer) run() (edited []int32, deleted []int32) {
	withGens := r.ix.rulesWithGenerators(r.d)
	// Process bottom-up: callees before callers (Algorithm 5 line 2 /
	// Algorithm 6 line 2). pos needs no clear: the topo loop writes every
	// live ID and only live IDs are read.
	r.sc.pos = grammar.GrowTo(r.sc.pos, int(r.g.MaxRuleID()))
	pos := r.sc.pos
	for i, id := range r.ix.topoAntiSL() {
		pos[id] = i
	}
	slices.SortFunc(withGens, func(a, b int32) int { return pos[a] - pos[b] })
	for _, rid := range withGens {
		r.processRule(rid)
	}
	for id, b := range r.born {
		if b {
			r.ix.addRule(int32(id))
		}
	}
	r.ix.flushDead()
	deleted = r.ix.collect()
	// edited comes off the dense-slice scan already ascending; deleted
	// rules have no index entry left.
	edited = r.ix.edited[:0]
	for id, e := range r.edited {
		if e && r.ix.perRule[id] != nil {
			edited = append(edited, int32(id))
		}
	}
	r.ix.edited = edited
	// markEdited/exportOne may have regrown the pooled tables past the
	// scratch's references; hand the larger backings back for reuse.
	r.sc.born = r.born
	r.sc.edited = r.edited
	return edited, deleted
}

// processRule isolates every occurrence of the digram generated in rule
// rid and replaces the now-explicit occurrences by the generated terminal.
func (r *replacer) processRule(rid int32) {
	rule := r.g.Rule(rid)
	if rule == nil {
		return
	}
	gens := r.ix.generators(rid, r.d)
	if len(gens) == 0 {
		return
	}
	ed := &r.sc.ruleEd
	ed.open(r.ix, rule, r.sc.arena)
	ro := r.ix.perRule[rid]
	placed := len(ro.pend) // nodes the isolation places are appended here

	// RDα construction for this rule (Section IV-E): accumulate flags per
	// nonterminal node — r on generator call nodes, y_i on call nodes that
	// are parents of generators.
	flags := r.sc.flags
	getFlags := func(n *xmltree.Node) *flagSet {
		f := flags[n]
		if f == nil {
			f = r.sc.newFlags()
			flags[n] = f
		}
		return f
	}
	for _, gnode := range gens {
		if gnode.Label.Kind == xmltree.Nonterminal {
			getFlags(gnode).r = true
		}
		p, i := ed.parent(gnode)
		if p != nil && p.Label.Kind == xmltree.Nonterminal {
			getFlags(p).addY(i + 1)
		}
	}

	// Inline the demanded version at every flagged node (preorder of the
	// pre-inline body, for determinism), recording what replaced each
	// inlined call so generator positions can be re-anchored.
	spliced := r.sc.spliced
	if len(flags) > 0 {
		order := r.sc.order[:0]
		for n := range flags {
			order = append(order, n)
		}
		r.ix.preorder(order)
		r.sc.order = order
		for _, call := range order {
			spliced[call] = r.inlineVersionAt(ed, call, flags[call])
		}
	}

	// Residual chains: with the optimized versions the flagged inlines
	// already isolated everything; in non-optimized mode (plain bodies)
	// the chains may need several inlining steps (Algorithm 5). They run
	// in preorder: an ancestor's chain can inline the call a descendant's
	// chain starts from, never the other way round.
	anchors := r.sc.anchors[:0]
	residual := r.sc.residual[:0]
	for _, gnode := range gens {
		anchor := gnode
		if s, ok := spliced[gnode]; ok {
			anchor = s
		}
		if p, _ := ed.parent(anchor); anchor.Label.Kind == xmltree.Nonterminal || p != nil && p.Label.Kind == xmltree.Nonterminal {
			residual = append(residual, anchor)
		} else {
			anchors = append(anchors, anchor)
		}
	}
	if len(residual) > 0 {
		r.ix.preorder(residual)
	}
	for _, anchor := range residual {
		for anchor.Label.Kind == xmltree.Nonterminal {
			anchor = r.inlineVersionAt(ed, anchor, r.sc.rootFlags())
		}
		for {
			p, i := ed.parent(anchor)
			if p == nil || p.Label.Kind != xmltree.Nonterminal {
				break
			}
			r.inlineVersionAt(ed, p, r.sc.paramFlags(i+1))
		}
		anchors = append(anchors, anchor)
	}
	r.sc.residual = residual
	// The inlined copies can hold explicit occurrences no generator
	// stands for: an equal-label occurrence the overlap test skipped in a
	// callee whose chain was paired differently there. Every such edge
	// has a node the isolation placed, so those nodes (as tree child, or
	// as tree parent via their chain child) are anchors too.
	for _, n := range ro.pend[placed:] {
		anchors = append(anchors, n)
		if n.Label == xmltree.Term(r.d.A) {
			anchors = append(anchors, n.Children[r.d.I-1])
		}
	}
	r.sc.anchors = anchors

	r.replaced += ed.replaceOccurrences(anchors, r.d, r.x)
	r.markEdited(rid)
	// Every key of flags and spliced is on the order list.
	for _, n := range r.sc.order {
		delete(flags, n)
		delete(spliced, n)
	}
	r.sc.order = r.sc.order[:0]
}

// inlineVersionAt inlines the processed version (optimized mode) or the
// plain current body (non-optimized mode) of the callee at the call node,
// maintains the approximate reference counts, and returns the subtree
// that took the call's place.
func (r *replacer) inlineVersionAt(ed *editor, call *xmltree.Node, fs *flagSet) *xmltree.Node {
	callee := call.Label.ID
	var body *xmltree.Node
	if r.optimized {
		body = r.version(callee, fs)
	} else {
		body = r.g.Rule(callee).RHS
	}
	return ed.inlineCall(call, body)
}

// version returns (building and memoizing on demand) the processed
// version body of rule rid for flag set fs: a tree with val equal to the
// rule's val in which the root (if r ∈ F) and the parent of each flagged
// parameter are terminal, and — if the rule keeps other references — all
// fragments not needed for the isolation exported into fresh rules
// (Algorithms 7–8). The returned tree is a template; inlineCall copies it.
func (r *replacer) version(rid int32, fs *flagSet) *xmltree.Node {
	if v, ok := r.versions[string(r.sc.versionKey(rid, fs))]; ok {
		return v
	}
	ed := r.sc.getEditor(r.g.Rule(rid))
	work := &ed.work
	paramNode := ed.params

	// Flag propagation into the version copy (Section IV-E): the root
	// gets r, the parent of each flagged parameter gets the matching y;
	// a single node can accumulate several flags.
	vflags := r.sc.getFlagMap()
	getFlags := func(n *xmltree.Node) *flagSet {
		f := vflags[n]
		if f == nil {
			f = r.sc.newFlags()
			vflags[n] = f
		}
		return f
	}
	if fs.r && work.RHS.Label.Kind == xmltree.Nonterminal {
		getFlags(work.RHS).r = true
	}
	for _, y := range fs.ys {
		p, i := ed.parent(paramNode[y-1])
		if p != nil && p.Label.Kind == xmltree.Nonterminal {
			getFlags(p).addY(i + 1)
		}
	}
	if len(vflags) > 0 {
		ed.order = appendFlagged(ed.order[:0], work.RHS, vflags)
		for _, call := range ed.order {
			r.inlineTemplateAt(ed, call, vflags[call])
		}
	}
	r.sc.putFlagMap(vflags)

	// Residual chains plus marking of the isolated nodes (Algorithm 7
	// lines 6–13).
	marks := ed.marks[:0]
	if fs.r {
		for work.RHS.Label.Kind == xmltree.Nonterminal {
			r.inlineTemplateAt(ed, work.RHS, r.sc.rootFlags())
		}
		marks = append(marks, work.RHS)
	}
	for _, y := range fs.ys {
		for {
			p, i := ed.parent(paramNode[y-1])
			if p.Label.Kind != xmltree.Nonterminal {
				marks = append(marks, p)
				break
			}
			r.inlineTemplateAt(ed, p, r.sc.paramFlags(i+1))
		}
	}
	ed.marks = marks

	body := work.RHS
	if r.optimized && (r.ix.refCount0(rid) > 1 || r.isBorn(rid)) && len(marks) > 0 {
		body = r.exportFragments(body, marks)
	}
	r.sc.putEditor(ed)
	key := string(r.sc.versionKey(rid, fs))
	r.versions[key] = body
	r.sc.vkeys = append(r.sc.vkeys, key)
	return body
}

// appendFlagged appends the nodes of the subtree rooted at n that carry
// flags to dst, in preorder.
func appendFlagged(dst []*xmltree.Node, n *xmltree.Node, flags map[*xmltree.Node]*flagSet) []*xmltree.Node {
	if _, ok := flags[n]; ok {
		dst = append(dst, n)
	}
	for _, c := range n.Children {
		dst = appendFlagged(dst, c, flags)
	}
	return dst
}

// inlineTemplateAt inlines a sub-version (or plain body) into a version
// template under construction. Unlike inlineVersionAt this does NOT touch
// the reference counts: templates are not part of the grammar — their
// calls are accounted for when the finished template is inlined at a real
// call site.
func (r *replacer) inlineTemplateAt(ed *editor, call *xmltree.Node, fs *flagSet) *xmltree.Node {
	var body *xmltree.Node
	if r.optimized {
		body = r.version(call.Label.ID, fs)
	} else {
		body = r.g.Rule(call.Label.ID).RHS
	}
	return ed.inlineCall(call, body)
}

// exportFragments implements Algorithm 8: every maximal connected
// fragment of ≥ 2 unmarked, non-parameter nodes is exported into a fresh
// rule and replaced by a call to it. Returns the (possibly new) body root.
func (r *replacer) exportFragments(body *xmltree.Node, marks []*xmltree.Node) *xmltree.Node {
	marked := r.sc.getBoolMap()
	for _, m := range marks {
		marked[m] = true
	}
	fragmentable := func(n *xmltree.Node) bool {
		return !marked[n] && n.Label.Kind != xmltree.Parameter
	}
	var process func(n *xmltree.Node, parentFrag bool) *xmltree.Node
	process = func(n *xmltree.Node, parentFrag bool) *xmltree.Node {
		if fragmentable(n) && !parentFrag && fragmentSize(n, fragmentable) >= 2 {
			call := r.exportOne(n, fragmentable)
			// The call's arguments are the fragment's holes (marked or
			// parameter subtrees); fragments nested below them are
			// exported independently.
			for i, a := range call.Children {
				call.Children[i] = process(a, false)
			}
			return call
		}
		for i, c := range n.Children {
			n.Children[i] = process(c, fragmentable(n))
		}
		return n
	}
	out := process(body, false)
	r.sc.putBoolMap(marked)
	return out
}

// fragmentSize counts the connected fragmentable nodes reachable downward
// from n (n included).
func fragmentSize(n *xmltree.Node, fragmentable func(*xmltree.Node) bool) int {
	s := 1
	for _, c := range n.Children {
		if fragmentable(c) {
			s += fragmentSize(c, fragmentable)
		}
	}
	return s
}

// exportOne exports the fragment rooted at n into a fresh rule U → t_U
// and returns the call U(t1..tk) replacing it. The fragment's holes —
// subtrees rooted at marked or parameter nodes — become U's parameters in
// preorder; the actual hole subtrees become the call's arguments.
func (r *replacer) exportOne(n *xmltree.Node, fragmentable func(*xmltree.Node) bool) *xmltree.Node {
	ar := r.sc.arena
	var args []*xmltree.Node
	var build func(v *xmltree.Node) *xmltree.Node
	build = func(v *xmltree.Node) *xmltree.Node {
		if !fragmentable(v) {
			args = append(args, v)
			return ar.New(xmltree.Param(len(args)))
		}
		cp := ar.New(v.Label)
		if len(v.Children) > 0 {
			cp.Children = ar.Children(len(v.Children))
			for i, c := range v.Children {
				cp.Children[i] = build(c)
			}
		}
		return cp
	}
	tu := build(n)
	u := r.g.NewRule(len(args), tu)
	r.markEdited(u.ID)
	r.born = grammar.GrowTo(r.born, int(u.ID)+1)
	r.born[u.ID] = true
	call := ar.New(xmltree.Nonterm(u.ID))
	call.Children = ar.Children(len(args))
	copy(call.Children, args)
	return call
}
