package grammar

import (
	"fmt"

	"repro/internal/freelist"
	"repro/internal/xmltree"
)

// InlineEverywhere replaces every call of rule id on any right-hand side by
// an instance of its body and deletes the rule. The start rule cannot be
// inlined away.
func (g *Grammar) InlineEverywhere(id int32) error {
	if id == g.Start {
		return fmt.Errorf("grammar: cannot inline start rule")
	}
	if g.Rule(id) == nil {
		return fmt.Errorf("grammar: no rule N%d", id)
	}
	p := newPruner(g)
	p.inline(id)
	p.done()
	return nil
}

// Sav returns the paper's productiveness measure of rule R:
//
//	sav_G(R) = |ref_G(R)| · (size(t_R) − rank(R)) − size(t_R)
//
// with size(t_R) the edge count of the right-hand side. A rule with
// sav < 0 is unproductive.
func Sav(refs int, edges int, rank int) int {
	return refs*(edges-rank) - edges
}

// pruner holds the call-site lists rule inlining works on: per callee
// rule ID, every call node that references it, so a rule's reference
// count is the length of its list and inlining a rule visits its call
// sites and its body, never a rule that does not call it. A call node's
// position in its callee's list lives in its Aux field, which the pruner
// owns while it runs; a call leaves its list in O(1).
//
// Pruners are recycled: done empties the lists, keeping their capacity,
// and hands the pruner to the next newPruner.
type pruner struct {
	g     *Grammar
	sites [][]*xmltree.Node // by callee rule ID; its length only grows
	used  int               // sites entries g's rule IDs can index

	// visits counts the body nodes inlines and deletes touch (building
	// the lists is one walk of the grammar and is not counted); tests use
	// it to pin the work to the rules pruned instead of |G|.
	visits int
}

// pruners holds the idle pruners newPruner hands out.
var pruners = freelist.List[pruner]{New: func() *pruner { return new(pruner) }}

// newPruner returns a pruner holding the call-site lists of g.
func newPruner(g *Grammar) *pruner {
	p := pruners.Get()
	p.g, p.used = g, int(g.nextNT)
	p.sites = GrowTo(p.sites, p.used)
	for _, id := range g.order {
		g.rules[id].RHS.Walk(func(v *xmltree.Node) bool {
			if v.Label.Kind == xmltree.Nonterminal {
				p.join(v)
			}
			return true
		})
	}
	return p
}

// done empties the pruner, zeroing every node reference and keeping the
// lists' capacity, and hands it back for reuse. The caller must not use
// it after.
func (p *pruner) done() {
	for i, s := range p.sites[:p.used] {
		clear(s)
		p.sites[i] = s[:0]
	}
	*p = pruner{sites: p.sites}
	pruners.Put(p)
}

// join appends call node n to its callee's list.
func (p *pruner) join(n *xmltree.Node) {
	c := n.Label.ID
	n.Aux = int32(len(p.sites[c]))
	p.sites[c] = append(p.sites[c], n)
}

// leave removes call node n from its callee's list.
func (p *pruner) leave(n *xmltree.Node) {
	c := n.Label.ID
	s := p.sites[c]
	last := len(s) - 1
	if moved := s[last]; moved != n {
		s[n.Aux] = moved
		moved.Aux = n.Aux
	}
	s[last] = nil
	p.sites[c] = s[:last]
}

// inline replaces every call of rule id by an instance of its body and
// deletes the rule; without call sites it just deletes it. Each call node
// becomes the root of its instance in place, and its arguments move into
// the instance by reference. Validate guarantees linear parameters and no
// bare-parameter body, so every call node on a list (calls nested in the
// arguments included) stays where it is and stays valid. The last site
// takes the body itself, whose calls keep their list entries; the other
// sites take copies, whose calls join their callees' lists.
func (p *pruner) inline(id int32) {
	body := p.g.rules[id].RHS
	sites := p.sites[id]
	// Nothing joins id's list below (no body calls id), so it can keep
	// its capacity; its node references are cleared once the loop is done.
	p.sites[id] = sites[:0]
	p.g.DeleteRule(id)
	if len(sites) == 0 {
		p.drop(body)
		return
	}
	last := len(sites) - 1
	for i, n := range sites {
		var root *xmltree.Node
		if i < last {
			root = p.copyBody(body, n.Children)
		} else {
			root = p.moveBody(body, n.Children)
		}
		n.Label, n.Children = root.Label, root.Children
		if root.Label.Kind == xmltree.Nonterminal {
			// n replaces the instance root on the root's callee list.
			n.Aux = root.Aux
			p.sites[root.Label.ID][root.Aux] = n
		}
	}
	clear(sites)
}

// copyBody returns a copy of body t with parameter y_i replaced by
// args[i-1]; the copy's calls join their callees' lists.
func (p *pruner) copyBody(t *xmltree.Node, args []*xmltree.Node) *xmltree.Node {
	p.visits++
	if t.Label.Kind == xmltree.Parameter {
		return args[t.Label.ID-1]
	}
	cp := &xmltree.Node{Label: t.Label}
	if len(t.Children) > 0 {
		cp.Children = make([]*xmltree.Node, len(t.Children))
		for i, c := range t.Children {
			cp.Children[i] = p.copyBody(c, args)
		}
	}
	if cp.Label.Kind == xmltree.Nonterminal {
		p.join(cp)
	}
	return cp
}

// moveBody replaces parameter y_i of body t by args[i-1] in place.
func (p *pruner) moveBody(t *xmltree.Node, args []*xmltree.Node) *xmltree.Node {
	p.visits++
	if t.Label.Kind == xmltree.Parameter {
		return args[t.Label.ID-1]
	}
	for i, c := range t.Children {
		t.Children[i] = p.moveBody(c, args)
	}
	return t
}

// drop takes the calls of a deleted rule's body off their lists.
func (p *pruner) drop(t *xmltree.Node) {
	t.Walk(func(v *xmltree.Node) bool {
		p.visits++
		if v.Label.Kind == xmltree.Nonterminal {
			p.leave(v)
		}
		return true
	})
}

// Prune implements the pruning phase (Algorithm 1 line 7 / Section IV-D):
// first every rule with exactly one reference is inlined away, then rules
// are analyzed in anti-SL order and every rule with sav < 0 is inlined
// everywhere. The two passes repeat until no rule changes, matching
// TreeRePair's greedy strategy. Unreachable rules are collected as well.
// Returns the number of rules removed.
//
// Reference counts are the lengths of the call-site lists, which every
// inline and delete keeps exact, so each decision sees the current count
// and pruning k rules costs their call sites and bodies, not k·|G|.
func (g *Grammar) Prune() int {
	p := newPruner(g)
	removed := p.run()
	p.done()
	return removed
}

func (p *pruner) run() int {
	g := p.g
	removed := 0
	for {
		changed := false
		// Pass 1: rules with one reference are never worth keeping, and
		// rules with none are unreachable.
		for _, id := range g.RuleIDs() {
			if id == g.Start || g.Rule(id) == nil {
				continue
			}
			if len(p.sites[id]) <= 1 {
				p.inline(id)
				removed++
				changed = true
			}
		}
		// Pass 2: unproductive rules in anti-SL order.
		anti, err := g.AntiSLOrder()
		if err != nil {
			// A broken grammar is a programming error upstream; pruning
			// must not mask it.
			panic(err)
		}
		for _, id := range anti {
			if id == g.Start {
				continue
			}
			r := g.Rule(id)
			if r == nil {
				continue
			}
			if Sav(len(p.sites[id]), r.RHS.Edges(), r.Rank) < 0 {
				p.inline(id)
				removed++
				changed = true
			}
		}
		if !changed {
			return removed
		}
	}
}
