package update

import (
	"fmt"
	"slices"

	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// Refs is the reference-count half of a Cache: for every rule ID the
// number of call nodes naming the rule, for every non-start rule its
// body's calls and edge count, the rules whose count fell to 0 since the
// last collection, and |G| split into the start rule's edges and the
// rest. Path isolation mutates only the start rule, so a non-start
// body's calls and edges never change under updates; each op adjusts
// the counts by what it edited (the calls an unfold copies in, the
// explicit subtree a delete drops, the nodes an insert adds), and a
// batch ends by deleting the zero-count rules with a cascade. The rule
// graph is acyclic, so a rule is unreachable exactly when the cascade
// reaches it: collection removes what GarbageCollect's reachability
// walk would, without visiting any live rule.
type Refs struct {
	count []int32    // by rule ID: call nodes naming the rule, over every live RHS
	body  []ruleBody // by non-start rule ID
	calls []int32    // every non-start body's callees, body by body
	zero  []int32    // non-start rules whose count is 0, pending collection
	start int        // edges of the start rule's RHS
	rest  int        // edges of every live non-start rule
}

// ruleBody locates one non-start rule's callees in Refs.calls (one per
// call node, repeats kept) and records its edge count.
type ruleBody struct {
	lo, n, edges int32
}

// CountRefs builds the counts of g in one walk of every rule. It only
// reads g, so the store's asynchronous recompression builds them off
// the write lock, beside the compressed grammar's size vectors.
func CountRefs(g *grammar.Grammar) *Refs {
	r := &Refs{
		count: make([]int32, g.MaxRuleID()),
		body:  make([]ruleBody, g.MaxRuleID()),
	}
	g.Rules(func(rule *grammar.Rule) {
		r.addRule(g, rule)
	})
	g.Rules(func(rule *grammar.Rule) {
		if rule.ID != g.Start && r.count[rule.ID] == 0 {
			r.zero = append(r.zero, rule.ID)
		}
	})
	return r
}

// addRule counts one rule's calls and records its body (the start
// rule's calls are counted, its edges kept apart).
func (r *Refs) addRule(g *grammar.Grammar, rule *grammar.Rule) {
	lo := len(r.calls)
	nodes := r.walkBody(rule.RHS)
	if rule.ID == g.Start {
		r.calls = r.calls[:lo]
		r.start = nodes - 1
		return
	}
	r.body = grammar.GrowTo(r.body, int(rule.ID)+1)
	r.body[rule.ID] = ruleBody{lo: int32(lo), n: int32(len(r.calls) - lo), edges: int32(nodes - 1)}
	r.rest += nodes - 1
}

// walkBody counts the calls under n, appends their callees to calls and
// returns the node count.
func (r *Refs) walkBody(n *xmltree.Node) int {
	nodes := 1
	if n.Label.Kind == xmltree.Nonterminal {
		id := n.Label.ID
		r.count = grammar.GrowTo(r.count, int(id)+1)
		r.count[id]++
		r.calls = append(r.calls, id)
	}
	for _, c := range n.Children {
		nodes += r.walkBody(c)
	}
	return nodes
}

// release drops one call of rule id, queueing the rule for collection
// when that was its last.
func (r *Refs) release(id int32) {
	r.count[id]--
	if r.count[id] == 0 {
		r.zero = append(r.zero, id)
	}
}

// unfold accounts for one call of rule id inlined into the start rule:
// the call is gone, a copy of the body's calls joined the start rule,
// and the start rule gained the body's edges less the rank edges that
// led to the call's arguments.
func (r *Refs) unfold(id int32, rank int) {
	b := r.body[id]
	for _, c := range r.calls[b.lo : b.lo+b.n] {
		r.count[c]++
	}
	r.start += int(b.edges) - rank
	r.release(id)
}

// detach accounts for a delete: the explicit subtree under n (the
// element's first child) leaves the start rule with the element itself.
// It returns the subtree's val size, measured by the same walk that
// drops its calls.
func (r *Refs) detach(n *xmltree.Node, sizes *grammar.SizeTable) int64 {
	val, nodes := r.dropSubtree(n, sizes)
	r.start -= nodes + 1
	return val
}

func (r *Refs) dropSubtree(n *xmltree.Node, sizes *grammar.SizeTable) (val int64, nodes int) {
	val, nodes = 1, 1
	if n.Label.Kind == xmltree.Nonterminal {
		val = sizes.Get(n.Label.ID).Total
		r.release(n.Label.ID)
	}
	for _, c := range n.Children {
		v, k := r.dropSubtree(c, sizes)
		val = grammar.SatAdd(val, v)
		nodes += k
	}
	return val, nodes
}

// collect deletes every queued rule whose count is still 0, cascading
// into the callees it held, and drops their size vectors. It returns
// the number of rules removed.
func (r *Refs) collect(g *grammar.Grammar, sizes *grammar.SizeTable) int {
	removed := 0
	for len(r.zero) > 0 {
		id := r.zero[len(r.zero)-1]
		r.zero = r.zero[:len(r.zero)-1]
		if r.count[id] != 0 || g.Rule(id) == nil {
			continue
		}
		b := r.body[id]
		for _, c := range r.calls[b.lo : b.lo+b.n] {
			r.release(c)
		}
		r.rest -= int(b.edges)
		r.body[id] = ruleBody{}
		g.DeleteRule(id)
		if sizes != nil {
			sizes.Drop(id)
		}
		removed++
	}
	return removed
}

// fold accounts for a rule minted from start-rule material (a re-fold):
// the body moved out of the start rule, so its calls keep their counts,
// and one call to the new rule took its place.
func (r *Refs) fold(g *grammar.Grammar, rule *grammar.Rule) {
	r.addRule(g, rule)
	b := r.body[rule.ID]
	for _, c := range r.calls[b.lo : b.lo+b.n] {
		r.count[c]--
	}
	r.count = grammar.GrowTo(r.count, int(rule.ID)+1)
	r.count[rule.ID] = 1
	r.start += 1 - int(b.edges)
}

// Verify recounts g from scratch and reports the first difference from
// the cache's counts: a rule's count, a body's calls or edges, the set
// of rules pending collection, |G|, or a size vector kept for a dead
// rule. It costs O(|G|); tests run it to pin the per-op bookkeeping.
func (c *Cache) Verify(g *grammar.Grammar) error {
	got := c.refs
	if got == nil {
		return nil
	}
	want := CountRefs(g)
	for id := range max(len(got.count), len(want.count)) {
		if a, b := at(got.count, id), at(want.count, id); a != b {
			return fmt.Errorf("rule N%d: count %d, recount %d", id, a, b)
		}
	}
	pending := make(map[int32]bool, len(got.zero))
	for _, id := range got.zero {
		pending[id] = true
	}
	if len(pending) != len(got.zero) {
		return fmt.Errorf("zero list %v holds a rule twice", got.zero)
	}
	for _, id := range want.zero {
		if !pending[id] {
			return fmt.Errorf("rule N%d has no calls but is not pending collection", id)
		}
		delete(pending, id)
	}
	for id := range pending {
		return fmt.Errorf("rule N%d is pending collection but has %d calls", id, at(got.count, int(id)))
	}
	var bad error
	g.Rules(func(r *grammar.Rule) {
		if bad != nil || r.ID == g.Start {
			return
		}
		a, b := got.body[r.ID], want.body[r.ID]
		if a.edges != b.edges || !slices.Equal(got.calls[a.lo:a.lo+a.n], want.calls[b.lo:b.lo+b.n]) {
			bad = fmt.Errorf("rule N%d: body %d edges calling %v, recount %d edges calling %v",
				r.ID, a.edges, got.calls[a.lo:a.lo+a.n], b.edges, want.calls[b.lo:b.lo+b.n])
		}
	})
	if bad != nil {
		return bad
	}
	if got.start != want.start || got.rest != want.rest {
		return fmt.Errorf("|G| = %d start + %d rest, recount %d + %d", got.start, got.rest, want.start, want.rest)
	}
	if c.sizes != nil {
		for id := range g.MaxRuleID() {
			if (c.sizes.Get(id) != nil) != (g.Rule(id) != nil) {
				return fmt.Errorf("rule N%d: size vector %v, rule %v", id, c.sizes.Get(id) != nil, g.Rule(id) != nil)
			}
		}
	}
	return nil
}

func at(s []int32, i int) int32 {
	if i < len(s) {
		return s[i]
	}
	return 0
}
