package core

// This file keeps the full-rescan occurrence index that the incremental
// occIndex replaced, as a test oracle: refIndex.refresh re-derives every
// edited rule's generators from scratch and every rule's interface and
// usage, so running it beside occIndex on the same grammar checks that
// the incremental updates leave exactly the state a full rescan would.

import (
	"slices"

	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// refRule is the oracle's per-rule state.
type refRule struct {
	gens         digram.Table[[]*xmltree.Node]
	calls        []call
	nodes        int
	paramParents []parentRef
	usageApplied float64
}

// refIface is the oracle's interface record.
type refIface struct {
	root   int32
	params []resolved
}

func (a *refIface) equal(b *refIface) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.root != b.root || len(a.params) != len(b.params) {
		return false
	}
	for i := range a.params {
		if a.params[i].label != b.params[i].label || a.params[i].idx != b.params[i].idx {
			return false
		}
	}
	return true
}

// refIndex maintains, incrementally across replacement rounds, the
// Algorithm 4 (RETRIEVEOCCS) state: per-rule digram occurrence generators,
// usage-weighted global frequencies, and the non-overlap bookkeeping for
// equal-label digrams. The global frequencies live in the digram queue,
// which is their only copy; the equal-label sets are keyed by packed
// digram keys in an open-addressed table. All per-rule state lives in
// dense rule-ID-indexed slices (rule IDs are dense and never reused), so
// per-rule lookups on the refresh path do no hashing.
type refIndex struct {
	g       *grammar.Grammar
	maxRank int

	perRule []*refRule   // by rule ID; nil = deleted / never seen
	usage   []float64    // by rule ID
	queue   digram.Queue // usage-weighted global frequency of every digram
	callBuf []int32      // rebuildLocal scratch: callee IDs of one rule
	// genSet holds, per equal-label digram, the set of stored generator
	// nodes (all of which are terminal tree children); a candidate whose
	// resolved tree parent is in this set would overlap (Alg. 4 line 11).
	genSet digram.Table[map[*xmltree.Node]bool]

	ifaces []*refIface // by rule ID
	// per-refresh resolution memos and scratch sets, reused across rounds
	// (all by rule ID; cleared, not reallocated, between refreshes)
	rootMemo  []*resolved
	paramMemo [][]*resolved
	changed   []bool
	dirty     []bool
	topoState []uint8
	topoBuf   []int32
}

func newRefIndex(g *grammar.Grammar, maxRank int) *refIndex {
	ix := &refIndex{g: g, maxRank: maxRank}
	ix.refresh(g.RuleIDs(), nil)
	return ix
}

// grow sizes every dense table for the rule IDs the grammar has assigned
// so far; called at each refresh (replacement rounds create rules).
func (ix *refIndex) grow() {
	n := int(ix.g.MaxRuleID())
	ix.perRule = grammar.GrowTo(ix.perRule, n)
	ix.usage = grammar.GrowTo(ix.usage, n)
	ix.ifaces = grammar.GrowTo(ix.ifaces, n)
	ix.rootMemo = grammar.GrowTo(ix.rootMemo, n)
	ix.paramMemo = grammar.GrowTo(ix.paramMemo, n)
	ix.changed = grammar.GrowTo(ix.changed, n)
	ix.dirty = grammar.GrowTo(ix.dirty, n)
	ix.topoState = grammar.GrowTo(ix.topoState, n)
}

// rulesWithGenerators returns the IDs of rules holding generators of d,
// in ascending rule-ID order (the dense scan produces it sorted).
func (ix *refIndex) rulesWithGenerators(d digram.Digram) []int32 {
	k := d.Key()
	var out []int32
	for rid, ro := range ix.perRule {
		if ro == nil {
			continue
		}
		if gens, _ := ro.gens.Get(k); len(gens) > 0 {
			out = append(out, int32(rid))
		}
	}
	return out
}

// totalNodes returns the summed RHS node count over all rules (tracked for
// intermediate-size instrumentation).
func (ix *refIndex) totalNodes() int {
	t := 0
	for _, ro := range ix.perRule {
		if ro != nil {
			t += ro.nodes
		}
	}
	return t
}

// refresh brings the index up to date after a replacement round that
// edited (or created) the given rules and deleted others. Passing all
// rule IDs as edited performs the initial full build.
func (ix *refIndex) refresh(edited []int32, deleted []int32) {
	// Replacement rounds create rules; size every dense table first.
	ix.grow()
	// Drop deleted rules entirely.
	for _, rid := range deleted {
		ix.dropContributions(rid)
		ix.perRule[rid] = nil
		ix.ifaces[rid] = nil
	}
	// Phase A: rebuild local structure (calls, parameter parents, node
	// counts) for every edited rule, so interface resolution below sees
	// current trees.
	for _, rid := range edited {
		if ix.g.Rule(rid) == nil {
			continue
		}
		ix.rebuildLocal(rid)
	}
	// Phase B: recompute every rule's interface with fresh memos and
	// collect the rules whose interface changed.
	clear(ix.rootMemo)
	clear(ix.paramMemo)
	changed := ix.changed
	clear(changed)
	nChanged := 0
	for _, rid := range ix.g.RuleIDs() {
		ni := ix.computeIface(rid)
		if !ni.equal(ix.ifaces[rid]) {
			changed[rid] = true
			nChanged++
		}
		ix.ifaces[rid] = ni
	}
	// Phase C: dirty = edited ∪ callers of interface-changed rules.
	dirty := ix.dirty
	clear(dirty)
	for _, rid := range edited {
		if ix.g.Rule(rid) != nil {
			dirty[rid] = true
		}
	}
	if nChanged > 0 {
		for rid, ro := range ix.perRule {
			if ro == nil || dirty[rid] {
				continue
			}
			for _, c := range ro.calls {
				if changed[c.rule] {
					dirty[rid] = true
					break
				}
			}
		}
	}
	// Phase D: rescan dirty rules in anti-SL order (callees first), which
	// keeps the equal-label greedy alignment close to Algorithm 4's.
	order := ix.topoAntiSL()
	for _, rid := range order {
		if dirty[rid] {
			ix.rescanGenerators(rid)
		}
	}
	// Phase E: recompute usage and fix up the weight every rule's
	// generators contribute with.
	ix.refreshUsage(order)
}

// dropContributions removes rule rid's generator contributions from the
// global counts and the equal-label sets.
func (ix *refIndex) dropContributions(rid int32) {
	ro := ix.perRule[rid]
	if ro == nil {
		return
	}
	ro.gens.Range(func(k digram.Key, gens *[]*xmltree.Node) bool {
		if len(*gens) == 0 {
			return true
		}
		d := k.Digram()
		ix.addCount(d, -ro.usageApplied*float64(len(*gens)))
		if d.EqualLabels() {
			if set, _ := ix.genSet.Get(k); set != nil {
				for _, gnode := range *gens {
					delete(set, gnode)
				}
			}
		}
		return true
	})
	ro.gens.Clear()
}

func (ix *refIndex) addCount(d digram.Digram, delta float64) {
	if delta != 0 {
		ix.queue.Add(d, delta)
	}
}

// rebuildLocal re-derives the structural caches of one rule.
func (ix *refIndex) rebuildLocal(rid int32) {
	r := ix.g.Rule(rid)
	ro := ix.perRule[rid]
	if ro == nil {
		ro = &refRule{}
		ix.perRule[rid] = ro
	}
	callees := ix.callBuf[:0]
	ro.paramParents = ro.paramParents[:0]
	for i := 0; i < r.Rank; i++ {
		ro.paramParents = append(ro.paramParents, parentRef{})
	}
	ro.nodes = 0
	r.RHS.WalkParent(func(n, p *xmltree.Node, i int) bool {
		ro.nodes++
		switch n.Label.Kind {
		case xmltree.Nonterminal:
			callees = append(callees, n.Label.ID)
		case xmltree.Parameter:
			ro.paramParents[n.Label.ID-1] = parentRef{node: p, idx: i}
		}
		return true
	})
	// Sort once here so topoAntiSL visits callees in ID order every round
	// without re-sorting.
	slices.Sort(callees)
	ro.calls = ro.calls[:0]
	for i, c := range callees {
		if i > 0 && c == callees[i-1] {
			ro.calls[len(ro.calls)-1].n++
		} else {
			ro.calls = append(ro.calls, call{rule: c, n: 1})
		}
	}
	ix.callBuf = callees
}

// computeIface resolves the rule's root chain and parameter parents to
// terminal labels (memoized per refresh).
func (ix *refIndex) computeIface(rid int32) *refIface {
	r := ix.g.Rule(rid)
	fi := &refIface{params: make([]resolved, r.Rank)}
	fi.root = ix.resolveRoot(rid).label
	for i := 1; i <= r.Rank; i++ {
		fi.params[i-1] = *ix.resolveParamParent(rid, i)
	}
	return fi
}

// resolveRoot implements TREECHILD's rule-root chain: the terminal node a
// nonterminal generator's tree child resolves to (Algorithm 2).
func (ix *refIndex) resolveRoot(rid int32) *resolved {
	if r := ix.rootMemo[rid]; r != nil {
		return r
	}
	root := ix.g.Rule(rid).RHS
	var res *resolved
	if root.Label.Kind == xmltree.Terminal {
		res = &resolved{node: root, label: root.Label.ID}
	} else {
		res = ix.resolveRoot(root.Label.ID)
	}
	ix.rootMemo[rid] = res
	return res
}

// resolveParamParent implements TREEPARENT's upward chain (Algorithm 3):
// the terminal node directly above parameter y_i of rule rid in the
// derived tree, and the 1-based child index of that edge.
func (ix *refIndex) resolveParamParent(rid int32, i int) *resolved {
	memo := ix.paramMemo[rid]
	if memo == nil {
		memo = make([]*resolved, ix.g.Rule(rid).Rank)
		ix.paramMemo[rid] = memo
	}
	if memo[i-1] != nil {
		return memo[i-1]
	}
	pr := ix.perRule[rid].paramParents[i-1]
	var res *resolved
	if pr.node.Label.Kind == xmltree.Terminal {
		res = &resolved{node: pr.node, label: pr.node.Label.ID, idx: pr.idx + 1}
	} else {
		// y_i is the (pr.idx+1)-th argument of a nonterminal call: the
		// real parent sits above that callee's parameter.
		res = ix.resolveParamParent(pr.node.Label.ID, pr.idx+1)
	}
	memo[i-1] = res
	return res
}

// resolveChildOf resolves the tree child of a generator node (Alg. 2).
// Returned by value: this runs once per scanned node, and a pointer
// result would heap-allocate on the terminal fast path.
func (ix *refIndex) resolveChildOf(n *xmltree.Node) resolved {
	if n.Label.Kind == xmltree.Terminal {
		return resolved{node: n, label: n.Label.ID}
	}
	return *ix.resolveRoot(n.Label.ID)
}

// resolveParentOf resolves the tree parent of a node at child index i
// (0-based) under p (Alg. 3).
func (ix *refIndex) resolveParentOf(p *xmltree.Node, i int) resolved {
	if p.Label.Kind == xmltree.Terminal {
		return resolved{node: p, label: p.Label.ID, idx: i + 1}
	}
	return *ix.resolveParamParent(p.Label.ID, i+1)
}

// rescanGenerators re-derives rule rid's occurrence generators
// (Algorithm 4's inner loop, lines 3–12) and updates global counts.
func (ix *refIndex) rescanGenerators(rid int32) {
	ix.dropContributions(rid)
	r := ix.g.Rule(rid)
	ro := ix.perRule[rid]
	u := ro.usageApplied
	r.RHS.WalkParent(func(n, p *xmltree.Node, i int) bool {
		if p == nil || n.Label.Kind == xmltree.Parameter {
			return true
		}
		child := ix.resolveChildOf(n)
		parent := ix.resolveParentOf(p, i)
		d := digram.Digram{A: parent.label, I: parent.idx, B: child.label}
		if d.Rank(ix.g.Syms) > ix.maxRank {
			return true
		}
		k := d.Key()
		if d.EqualLabels() {
			// Equal-label digrams: never across a rule root (nonterminal
			// generator), and never overlapping a stored occurrence.
			if n.Label.Kind == xmltree.Nonterminal {
				return true
			}
			setp := ix.genSet.Ref(k)
			if *setp == nil {
				*setp = make(map[*xmltree.Node]bool)
			} else if (*setp)[parent.node] {
				return true
			}
			(*setp)[n] = true
		}
		gp := ro.gens.Ref(k)
		*gp = append(*gp, n)
		ix.addCount(d, u)
		return true
	})
}

// topoAntiSL orders live rules callee-before-caller using the cached
// sorted callee lists (cheaper than re-walking every RHS). The returned
// slice is reused by the next call.
func (ix *refIndex) topoAntiSL() []int32 {
	ids := ix.g.RuleIDs()
	state := ix.topoState
	clear(state)
	out := ix.topoBuf[:0]
	var visit func(id int32)
	visit = func(id int32) {
		if state[id] != 0 {
			return
		}
		state[id] = 1
		for _, c := range ix.perRule[id].calls {
			visit(c.rule)
		}
		state[id] = 2
		out = append(out, id)
	}
	for _, id := range ids {
		visit(id)
	}
	ix.topoBuf = out
	return out
}

// refreshUsage recomputes usage_G for all rules from the callee lists and
// adjusts every affected digram count by the usage delta.
func (ix *refIndex) refreshUsage(antiSL []int32) {
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
			ro.gens.Range(func(k digram.Key, gens *[]*xmltree.Node) bool {
				if len(*gens) > 0 {
					ix.addCount(k.Digram(), delta*float64(len(*gens)))
				}
				return true
			})
			ro.usageApplied = newUsage[rid]
		}
	}
}

// replaceDigramScan replaces every explicit occurrence of the digram
// (a, i, b) in the rule body by a node labeled with the generated
// terminal x, top-down greedily (the generalization of left-greedy
// matching the paper mandates in Section III-C). Returns the number of
// replacements. This is the whole-body scan the anchored
// editor.replaceOccurrences replaced.
func replaceDigramScan(rule *grammar.Rule, a int32, i int, b int32, x int32, arena *xmltree.Arena) int {
	n := 0
	var rec func(v *xmltree.Node) *xmltree.Node
	rec = func(v *xmltree.Node) *xmltree.Node {
		if v.Label == xmltree.Term(a) && i-1 < len(v.Children) {
			w := v.Children[i-1]
			if w.Label == xmltree.Term(b) {
				nc := arena.Children(len(v.Children) - 1 + len(w.Children))
				k := copy(nc, v.Children[:i-1])
				k += copy(nc[k:], w.Children)
				copy(nc[k:], v.Children[i:])
				xn := arena.New(xmltree.Term(x))
				xn.Children = nc
				v = xn
				n++
			}
		}
		for j, c := range v.Children {
			v.Children[j] = rec(c)
		}
		return v
	}
	rule.RHS = rec(rule.RHS)
	return n
}
