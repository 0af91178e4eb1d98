// Package core implements GrammarRePair, the paper's contribution:
// RePair compression executed directly on an SLCF tree grammar
// (Algorithms 1–8), without decompressing to the tree.
package core

import (
	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// editor wraps one rule body with a parent/child-index table so that
// inlining steps (which splice trees in place) stay O(size of the
// inlined body) instead of re-walking the whole rule.
//
// A grammar rule's editor reads and writes the occurrence index's node
// table, which always covers every live rule, and reports each node it
// creates, removes or moves to the index (place / unlink); opening it
// costs nothing. A version template's editor (ix == nil) owns a private
// table, filled by one walk of the template copy. Editors are pooled by
// the per-run scratch; the private table keeps its capacity.
type editor struct {
	rule  *grammar.Rule
	arena *xmltree.Arena
	ix    *occIndex  // non-nil: rule is a grammar rule tracked by ix
	tab   *nodeTable // ix.tab, or own
	own   nodeTable

	// A template editor's rule (the version under construction), its
	// parameter nodes y1..yk, and the version's flagged-node and mark
	// lists.
	work                 grammar.Rule
	params, order, marks []*xmltree.Node
}

// reset opens a template editor on a rule body that is not part of the
// grammar.
func (ed *editor) reset(rule *grammar.Rule, arena *xmltree.Arena) {
	ed.rule = rule
	ed.arena = arena
	ed.ix = nil
	ed.tab = &ed.own
	ed.own.reset()
	ed.params = grammar.GrowTo(ed.params[:0], rule.Rank)
	ed.putAll(rule.RHS, nil, -1)
}

// putAll registers the subtree rooted at n in the private table, in
// preorder, and records its parameter nodes.
func (ed *editor) putAll(n, parent *xmltree.Node, idx int) {
	ed.own.put(n, parent, idx)
	if n.Label.Kind == xmltree.Parameter {
		ed.params[n.Label.ID-1] = n
	}
	for i, c := range n.Children {
		ed.putAll(c, n, i)
	}
}

// open opens an editor on grammar rule rule, backed by the index.
func (ed *editor) open(ix *occIndex, rule *grammar.Rule, arena *xmltree.Arena) {
	ed.rule = rule
	ed.arena = arena
	ed.ix = ix
	ed.tab = &ix.tab
}

// setLoc records that n sits at child index idx under parent.
func (ed *editor) setLoc(n, parent *xmltree.Node, idx int) {
	if ed.ix != nil {
		ed.ix.place(n, parent, idx, ed.rule.ID)
	} else {
		ed.own.put(n, parent, idx)
	}
}

// parent returns the current parent of n within the rule (nil for root)
// and n's child index in it. An unregistered node reads as a root.
func (ed *editor) parent(n *xmltree.Node) (*xmltree.Node, int) {
	if e := ed.tab.get(n); e != nil {
		return e.parent, int(e.idx)
	}
	return nil, 0
}

// replace puts sub where old was (rule root or a child slot) and returns
// old's parent and child index.
func (ed *editor) replace(old, sub *xmltree.Node) (*xmltree.Node, int) {
	p, i := ed.parent(old)
	if p == nil {
		ed.rule.RHS = sub
	} else {
		p.Children[i] = sub
	}
	if ed.ix != nil {
		ed.ix.unlink(old)
	}
	return p, i
}

// splice replaces the node old (which must be in the rule) by sub,
// updating the parent table for every node of sub except the interiors of
// the subtrees listed in keep (whose entries are already correct because
// the subtrees were simply relocated).
func (ed *editor) splice(old, sub *xmltree.Node, keep []*xmltree.Node) {
	p, i := ed.replace(old, sub)
	var walk func(n, parent *xmltree.Node, idx int)
	walk = func(n, parent *xmltree.Node, idx int) {
		ed.setLoc(n, parent, idx)
		for _, k := range keep {
			if k == n {
				return // relocated subtree: interior entries still valid
			}
		}
		for j, c := range n.Children {
			walk(c, n, j)
		}
	}
	walk(sub, p, i)
}

// inlineCall replaces the nonterminal call node with an instantiation of
// body (a template that is copied) and returns the new subtree root.
// The call's argument subtrees are spliced by reference.
func (ed *editor) inlineCall(call *xmltree.Node, body *xmltree.Node) *xmltree.Node {
	args := call.Children
	sub := grammar.SubstituteParamsIn(body.CopyIn(ed.arena), args, ed.arena)
	ed.splice(call, sub, args)
	return sub
}

// replaceOccurrences replaces the explicit occurrences of digram d at the
// given anchors — each the tree child of one isolated occurrence — by
// nodes labeled with the generated terminal x, and returns the number of
// replacements. The result is the one a top-down greedy scan of the whole
// body produces (the generalization of left-greedy matching the paper
// mandates in Section III-C): every explicit occurrence of the digram
// lies at an anchor, and an equal-label digram is paired along its chain
// from the chain's top.
func (ed *editor) replaceOccurrences(anchors []*xmltree.Node, d digram.Digram, x int32) int {
	a, b := xmltree.Term(d.A), xmltree.Term(d.B)
	i := d.I - 1
	n := 0
	for _, w := range anchors {
		e := ed.tab.get(w)
		if e == nil || e.flags&nodeDead != 0 {
			continue // consumed by an earlier pair on its chain
		}
		v := e.parent
		if v == nil || v.Label != a || int(e.idx) != i || w.Label != b {
			continue
		}
		if !d.EqualLabels() {
			ed.replacePair(v, w, i, x)
			n++
			continue
		}
		for {
			p, pi := ed.parent(v)
			if p == nil || p.Label != a || pi != i {
				break
			}
			v = p
		}
		for v.Label == a {
			w := v.Children[i]
			if w.Label != a {
				break
			}
			next := w.Children[i]
			ed.replacePair(v, w, i, x)
			n++
			v = next
		}
	}
	return n
}

// replacePair replaces the explicit occurrence v –(i+1)→ w by an x node
// holding v's other children with w's children in w's slot.
func (ed *editor) replacePair(v, w *xmltree.Node, i int, x int32) {
	nc := ed.arena.Children(len(v.Children) - 1 + len(w.Children))
	k := copy(nc, v.Children[:i])
	k += copy(nc[k:], w.Children)
	copy(nc[k:], v.Children[i+1:])
	xn := ed.arena.New(xmltree.Term(x))
	xn.Children = nc
	p, pi := ed.replace(v, xn)
	ed.ix.unlink(w)
	ed.setLoc(xn, p, pi)
	for j, c := range nc {
		ed.setLoc(c, xn, j)
	}
}
