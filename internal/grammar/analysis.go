package grammar

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/xmltree"
)

// ErrSaturated reports that a derived-tree node count overflowed the int64
// range and was clamped to math.MaxInt64. Grammars can compress
// exponentially, so saturation is an expected state, not corruption —
// callers that need an exact element count (sltgrammar.Elements,
// isolate.NonBottomCount, Store.Stats) return this sentinel instead of a
// bogus huge number.
var ErrSaturated = errors.New("grammar: derived tree size saturated (exceeds int64)")

// Saturated reports whether a node count hit the saturation ceiling of
// ValSizes/ValNodeCount.
func Saturated(n int64) bool { return n == math.MaxInt64 }

// RefCounts returns |ref_G(Q)| — the number of occurrences of each rule's
// nonterminal on right-hand sides — as a dense slice indexed by rule ID
// (length MaxRuleID; dead IDs hold 0). Rule IDs are never reused, so the
// slice form replaces the former map without any hashing per lookup.
func (g *Grammar) RefCounts() []int {
	refs := make([]int, g.nextNT)
	for _, id := range g.order {
		g.rules[id].RHS.Walk(func(v *xmltree.Node) bool {
			if v.Label.Kind == xmltree.Nonterminal {
				refs[v.Label.ID]++
			}
			return true
		})
	}
	return refs
}

// Usage returns usage_G(Q) for every rule as a dense slice indexed by rule
// ID: the number of times Q is used to generate val_G(S). usage(S) = 1 and
// usage(Q) = Σ_{(R,n)∈ref(Q)} usage(R), computed in SL order (callers
// before callees). Usage counts can be astronomically large for
// exponentially compressing grammars, so they are computed in float64 and
// saturate at +Inf; digram-frequency comparisons only need ordering, for
// which this is sufficient. Dead rule IDs (and unreachable rules) hold 0.
func (g *Grammar) Usage() ([]float64, error) {
	sl, err := g.SLOrder()
	if err != nil {
		return nil, err
	}
	usage := make([]float64, g.nextNT)
	usage[g.Start] = 1
	for _, id := range sl {
		u := usage[id]
		if u == 0 {
			continue // unreachable rule
		}
		g.rules[id].RHS.Walk(func(v *xmltree.Node) bool {
			if v.Label.Kind == xmltree.Nonterminal {
				usage[v.Label.ID] += u
				if math.IsInf(usage[v.Label.ID], 1) {
					usage[v.Label.ID] = math.Inf(1)
				}
			}
			return true
		})
	}
	return usage, nil
}

// GarbageCollect deletes every rule unreachable from the start rule and
// returns the number of rules removed. Updates can strand rules (a
// delete drops calls, an unfold inlines a rule's last call); the Store
// and update.ApplyAll collect those from exact reference counts instead,
// and this reachability walk over every rule is their reference.
func (g *Grammar) GarbageCollect() int {
	reach := make([]bool, g.nextNT)
	var mark func(id int32)
	mark = func(id int32) {
		if reach[id] {
			return
		}
		reach[id] = true
		if r := g.Rule(id); r != nil {
			r.RHS.Walk(func(v *xmltree.Node) bool {
				if v.Label.Kind == xmltree.Nonterminal {
					mark(v.Label.ID)
				}
				return true
			})
		}
	}
	mark(g.Start)
	removed := 0
	for _, id := range g.RuleIDs() {
		if !reach[id] {
			g.DeleteRule(id)
			removed++
		}
	}
	return removed
}

// SizeVectors holds, for one rule A of rank k, the paper's
// size(A,0..k): the number of nodes of val(A) that appear before y1 in
// preorder, between y1 and y2, ..., after yk (parameter nodes themselves
// are not counted, matching the paper's example). Total is the node count
// of val(A) with parameters excluded.
type SizeVectors struct {
	Seg   []int64 // length rank+1
	Total int64   // Σ Seg
}

// SizeTable is a dense rule-ID-indexed table of size vectors: the shape
// ValSizes returns and path isolation, the update cache, and the Store
// probe on every operation. Because rule IDs are dense and never reused,
// a slice lookup replaces the former map[int32] probe — no hashing on the
// isolation hot path. A nil entry means "no vector" (dead rule or not yet
// computed), exactly like a missing map key.
type SizeTable struct {
	vec []*SizeVectors
}

// NewSizeTable returns an empty table sized for every rule ID the grammar
// has assigned so far.
func NewSizeTable(g *Grammar) *SizeTable {
	return &SizeTable{vec: make([]*SizeVectors, g.MaxRuleID())}
}

// Get returns the vector for rule id (nil if absent). Out-of-range IDs
// return nil rather than panicking, matching map-miss semantics.
func (t *SizeTable) Get(id int32) *SizeVectors {
	if uint64(id) >= uint64(len(t.vec)) {
		return nil
	}
	return t.vec[id]
}

// Set stores the vector for rule id, growing the table as needed.
func (t *SizeTable) Set(id int32, sv *SizeVectors) {
	t.vec = GrowTo(t.vec, int(id)+1)
	t.vec[id] = sv
}

// Drop removes the vector for rule id.
func (t *SizeTable) Drop(id int32) {
	if uint64(id) < uint64(len(t.vec)) {
		t.vec[id] = nil
	}
}

// Snapshot returns a copy of the table that a writer takes for itself
// when a reader has pinned the original into a frozen grammar
// generation. Only the start rule's vector is ever mutated in place by
// the update cache (adjustStartTotal), so the copy is shallow except
// for that one vector; the fresh backing slice keeps later
// Set/Drop/GrowTo on the copy from showing through to the original.
func (t *SizeTable) Snapshot(start int32) *SizeTable {
	nv := append([]*SizeVectors(nil), t.vec...)
	if uint64(start) < uint64(len(nv)) && nv[start] != nil {
		sv := nv[start]
		nv[start] = &SizeVectors{Seg: append([]int64(nil), sv.Seg...), Total: sv.Total}
	}
	return &SizeTable{vec: nv}
}

// Range calls f for every present vector in ascending rule-ID order until
// f returns false. f may Drop entries (including the current one).
func (t *SizeTable) Range(f func(id int32, sv *SizeVectors) bool) {
	for id, sv := range t.vec {
		if sv != nil && !f(int32(id), sv) {
			return
		}
	}
}

// ValSizes computes size vectors for every rule in one bottom-up pass, as
// required by path isolation (Section III-A). Each rule's body is walked
// once: a call whose callee has no vector yet computes the callee's
// first (depth-first, so callees always precede their callers, as in
// AntiSLOrder). Counts saturate at math.MaxInt64 to stay safe on
// exponentially compressing grammars.
func (g *Grammar) ValSizes() (*SizeTable, error) {
	sizes := NewSizeTable(g)
	busy := make([]bool, g.nextNT)
	var fill func(id int32) error
	fill = func(id int32) error {
		if g.Rule(id) == nil {
			return fmt.Errorf("%w: missing rule N%d", errValidate, id)
		}
		if busy[id] {
			return fmt.Errorf("%w: recursion through N%d", errValidate, id)
		}
		busy[id] = true
		sv, err := g.ruleValSizes(id, sizes, fill)
		if err != nil {
			return err
		}
		busy[id] = false
		sizes.vec[id] = sv
		return nil
	}
	for _, id := range g.order {
		if sizes.vec[id] == nil {
			if err := fill(id); err != nil {
				return nil, err
			}
		}
	}
	return sizes, nil
}

// RuleValSizes computes the size vector of one rule from already-computed
// callee vectors in sizes. It is the per-rule body of ValSizes, exposed so
// callers that know only the start rule changed (path isolation keeps
// every other rule intact) can refresh a cached size-vector table in
// O(|RHS|) instead of recomputing all rules.
func (g *Grammar) RuleValSizes(id int32, sizes *SizeTable) (*SizeVectors, error) {
	return g.ruleValSizes(id, sizes, nil)
}

// ruleValSizes is RuleValSizes; fill, when not nil, computes a callee's
// vector the table does not hold yet.
func (g *Grammar) ruleValSizes(id int32, sizes *SizeTable, fill func(int32) error) (*SizeVectors, error) {
	r := g.Rule(id)
	if r == nil {
		return nil, fmt.Errorf("grammar: RuleValSizes: no rule N%d", id)
	}
	sv := &SizeVectors{Seg: make([]int64, r.Rank+1)}
	seg := 0
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		switch n.Label.Kind {
		case xmltree.Parameter:
			seg = int(n.Label.ID)
			return nil
		case xmltree.Terminal:
			sv.Seg[seg] = satAdd(sv.Seg[seg], 1)
			for _, c := range n.Children {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		case xmltree.Nonterminal:
			callee := sizes.Get(n.Label.ID)
			if callee == nil && fill != nil {
				if err := fill(n.Label.ID); err != nil {
					return err
				}
				callee = sizes.Get(n.Label.ID)
			}
			if callee == nil {
				return fmt.Errorf("grammar: ValSizes: rule N%d not yet computed", n.Label.ID)
			}
			sv.Seg[seg] = satAdd(sv.Seg[seg], callee.Seg[0])
			for i, c := range n.Children {
				if err := walk(c); err != nil {
					return err
				}
				sv.Seg[seg] = satAdd(sv.Seg[seg], callee.Seg[i+1])
			}
			return nil
		}
		return fmt.Errorf("grammar: ValSizes: bad symbol kind")
	}
	if err := walk(r.RHS); err != nil {
		return nil, err
	}
	for _, s := range sv.Seg {
		sv.Total = satAdd(sv.Total, s)
	}
	return sv, nil
}

func satAdd(a, b int64) int64 {
	s := a + b
	if s < a {
		return math.MaxInt64
	}
	return s
}

// SatAdd adds two non-negative node counts, saturating at math.MaxInt64
// (the same ceiling Saturated tests for). Exported so callers composing
// their own count arithmetic (update's delete accounting) share one
// saturation rule.
func SatAdd(a, b int64) int64 { return satAdd(a, b) }

// SubtreeValSizeWithin computes SubtreeValSize(t) with an early abort:
// it returns (size, true) when val(t) has at most limit nodes, and
// (partial, false) as soon as the running count exceeds limit — without
// walking the rest of the subtree. Path isolation uses it to prove "the
// target position lies inside this child" after walking only enough of
// the child to cover the target's offset, instead of measuring subtrees
// it is about to descend into anyway. The recursion carries the running
// count in plain arguments (no closure), so the isolation hot path
// allocates nothing.
func SubtreeValSizeWithin(t *xmltree.Node, sizes *SizeTable, limit int64) (int64, bool) {
	return subtreeWithin(t, sizes, limit, 0)
}

func subtreeWithin(n *xmltree.Node, sizes *SizeTable, limit, acc int64) (int64, bool) {
	if n.Label.Kind == xmltree.Nonterminal {
		acc = satAdd(acc, sizes.Get(n.Label.ID).Total)
	} else {
		acc = satAdd(acc, 1)
	}
	if acc > limit {
		return acc, false
	}
	for _, c := range n.Children {
		var ok bool
		if acc, ok = subtreeWithin(c, sizes, limit, acc); !ok {
			return acc, false
		}
	}
	return acc, true
}

// ValNodeCount returns the node count of val_G(S) (excluding nothing;
// the start rule has no parameters so this is the full tree size),
// computed without expansion.
func (g *Grammar) ValNodeCount() (int64, error) {
	sizes, err := g.ValSizes()
	if err != nil {
		return 0, err
	}
	return sizes.Get(g.Start).Total, nil
}

// SubtreeValSize returns the node count of val(t) for a subtree t of a
// right-hand side, given precomputed rule size vectors. Parameter nodes
// count as 1 placeholder node (they stand for externally supplied trees;
// path isolation only uses this on the start rule, which has none).
func SubtreeValSize(t *xmltree.Node, sizes *SizeTable) int64 {
	switch t.Label.Kind {
	case xmltree.Parameter:
		return 1
	case xmltree.Terminal:
		var s int64 = 1
		for _, c := range t.Children {
			s = satAdd(s, SubtreeValSize(c, sizes))
		}
		return s
	case xmltree.Nonterminal:
		sv := sizes.Get(t.Label.ID)
		s := sv.Total
		for _, c := range t.Children {
			s = satAdd(s, SubtreeValSize(c, sizes))
		}
		return s
	}
	return 0
}
