// Package grammar implements straight-line linear context-free (SLCF) tree
// grammars exactly as defined in Section II of the paper: a 4-tuple
// G = (F, N, P, S) where every nonterminal R of rank m has exactly one rule
// R → t_R, t_R is linear in the parameters y1..ym (each occurs exactly
// once, in preorder order), the start symbol S never occurs on a right-hand
// side, and the call relation is acyclic (straight-line).
package grammar

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/xmltree"
)

// Rule is a grammar production R → RHS. Rank is the number of formal
// parameters of R; each of y1..yRank occurs exactly once in RHS.
type Rule struct {
	ID   int32
	Rank int
	RHS  *xmltree.Node
}

// Grammar is a mutable SLCF tree grammar. Rules are identified by
// nonterminal ID; iteration order over rules is the deterministic order of
// creation (kept in order), which experiments rely on for reproducibility.
//
// Rule IDs are dense: NewRule assigns them sequentially and they are never
// reused, so rules live in a slice indexed by ID (deleted rules leave nil
// gaps) and every per-rule analysis table (RefCounts, Usage, SizeTable,
// the compressor's occurrence index) is a plain slice bounded by
// MaxRuleID — no hashing on any per-rule lookup.
type Grammar struct {
	Syms  *xmltree.SymbolTable
	Start int32

	rules  []*Rule // indexed by rule ID; nil = deleted / never created
	order  []int32 // creation order of live rule IDs
	nextNT int32

	// epoch counts document-content mutations (update operations) applied
	// to this grammar instance. It is bumped by the update path, copied by
	// Clone, and compared by the store's asynchronous recompression swap
	// protocol: a snapshot whose epoch still matches the live grammar's
	// derives the same document, so the recompressed copy can be swapped
	// in. Rule surgery that preserves the document (GC, inlining,
	// recompression itself) does not bump it.
	epoch uint64

	// frozen marks a published (shared, immutable) grammar: the store's
	// generational read path hands the same Grammar instance to any
	// number of lock-free readers, so the writer freezes it at publish
	// time and every mutation entry point asserts against the flag. The
	// assertion is a development tripwire, not a synchronization
	// mechanism — correctness comes from the store's publish protocol.
	frozen bool
}

// Epoch returns the grammar's update epoch. See the field comment.
func (g *Grammar) Epoch() uint64 { return g.epoch }

// BumpEpoch records one document-content mutation and returns the new
// epoch. Callers that mutate val(G) outside the update path must bump,
// or epoch-guarded snapshot swaps would resurrect overwritten content.
func (g *Grammar) BumpEpoch() uint64 {
	g.assertMutable()
	g.epoch++
	return g.epoch
}

// Freeze marks the grammar published: from now on any structural
// mutation or epoch bump panics. Freezing is idempotent; Clone always
// returns an unfrozen copy, and the owner that published the grammar
// may Unfreeze it again once it has proven no reader shares it (the
// store's generation-reclaim path).
func (g *Grammar) Freeze() { g.frozen = true }

// Unfreeze re-arms mutation on a frozen grammar. Only the publisher may
// call it, and only while it can prove no reader holds the instance.
func (g *Grammar) Unfreeze() { g.frozen = false }

// Frozen reports whether the grammar is in published/immutable mode.
func (g *Grammar) Frozen() bool { return g.frozen }

// assertMutable panics on mutation of a published grammar — the debug
// tripwire of the store's generational read protocol.
func (g *Grammar) assertMutable() {
	if g.frozen {
		panic("grammar: mutation of a frozen (published) grammar")
	}
}

// New returns an empty grammar over the given symbol table with a start
// rule S (rank 0) whose right-hand side is a single ⊥ node.
func New(st *xmltree.SymbolTable) *Grammar {
	g := &Grammar{Syms: st}
	s := g.NewRule(0, xmltree.NewBottom())
	g.Start = s.ID
	return g
}

// FromTree wraps a plain tree (no nonterminals, no parameters) into a
// single-rule grammar S → t. The tree is not copied.
func FromTree(st *xmltree.SymbolTable, t *xmltree.Node) *Grammar {
	g := New(st)
	g.rules[g.Start].RHS = t
	return g
}

// MaxRuleID returns an exclusive upper bound on every rule ID the grammar
// has ever assigned (deleted IDs included — they are never reused). Dense
// rule-ID-indexed tables size themselves by this bound.
func (g *Grammar) MaxRuleID() int32 { return g.nextNT }

// FromDocument wraps a binary-encoded document into a single-rule grammar.
func FromDocument(d *xmltree.Document) *Grammar {
	return FromTree(d.Syms, d.Root)
}

// NewRule creates a fresh nonterminal of the given rank with the given
// right-hand side and registers its rule.
func (g *Grammar) NewRule(rank int, rhs *xmltree.Node) *Rule {
	g.assertMutable()
	id := g.nextNT
	g.nextNT++
	r := &Rule{ID: id, Rank: rank, RHS: rhs}
	g.setRule(id, r)
	g.order = append(g.order, id)
	return r
}

// setRule grows the dense rule slice to cover id and stores r there.
func (g *Grammar) setRule(id int32, r *Rule) {
	g.assertMutable()
	g.rules = GrowTo(g.rules, int(id)+1)
	g.rules[id] = r
}

// GrowTo extends a dense rule-ID-indexed slice to length n (new
// elements zero), reusing spare capacity. One helper for every dense
// table keyed by rule ID — the grammar's rule slice, SizeTable, and the
// compressor's occurrence-index state.
func GrowTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		t := s[:n]
		// Spare capacity is zero after any append-grow, but clear
		// defensively so no truncation pattern can ever leak old values.
		clear(t[len(s):])
		return t
	}
	return append(s, make([]T, n-len(s))...)
}

// Rule returns the rule for nonterminal id (nil if deleted/unknown).
func (g *Grammar) Rule(id int32) *Rule {
	if uint64(id) >= uint64(len(g.rules)) {
		return nil
	}
	return g.rules[id]
}

// StartRule returns the start rule.
func (g *Grammar) StartRule() *Rule { return g.Rule(g.Start) }

// DeleteRule removes the rule for id. The caller must ensure no remaining
// right-hand side references id.
func (g *Grammar) DeleteRule(id int32) {
	g.assertMutable()
	if g.Rule(id) == nil {
		return
	}
	g.rules[id] = nil
	// Rules are created with ascending IDs, so order is sorted unless a
	// decoded stream listed its rules out of order: search, and scan
	// only when the search misses.
	i, ok := slices.BinarySearch(g.order, id)
	if !ok {
		i = slices.Index(g.order, id)
	}
	g.order = slices.Delete(g.order, i, i+1)
}

// NumRules returns the number of live rules.
func (g *Grammar) NumRules() int { return len(g.order) }

// RuleIDs returns the live rule IDs in creation order. The returned slice
// is a copy and safe to mutate.
func (g *Grammar) RuleIDs() []int32 {
	return append([]int32(nil), g.order...)
}

// Rules calls f for every live rule in creation order. f must not add or
// delete rules.
func (g *Grammar) Rules(f func(*Rule)) {
	for _, id := range g.order {
		f(g.rules[id])
	}
}

// Size returns |G| = Σ_rules edges(RHS), the paper's grammar size measure.
func (g *Grammar) Size() int {
	s := 0
	for _, id := range g.order {
		s += g.rules[id].RHS.Edges()
	}
	return s
}

// NodeCount returns the total number of right-hand-side nodes.
func (g *Grammar) NodeCount() int {
	s := 0
	for _, id := range g.order {
		s += g.rules[id].RHS.Size()
	}
	return s
}

// Clone returns a deep copy of the grammar (rules and symbol table).
// The copy preserves the epoch and every rule ID but is always unfrozen:
// cloning is how a writer obtains a private mutable working copy of a
// published generation.
func (g *Grammar) Clone() *Grammar { return g.CloneIn(nil) }

// CloneIn is Clone with every rule body copied into the arena.
func (g *Grammar) CloneIn(a *xmltree.Arena) *Grammar {
	cp := &Grammar{
		Syms:   g.Syms.Clone(),
		Start:  g.Start,
		rules:  make([]*Rule, len(g.rules)),
		order:  append([]int32(nil), g.order...),
		nextNT: g.nextNT,
		epoch:  g.epoch,
	}
	for id, r := range g.rules {
		if r != nil {
			cp.rules[id] = &Rule{ID: r.ID, Rank: r.Rank, RHS: r.RHS.CopyIn(a)}
		}
	}
	return cp
}

// errValidate wraps validation failures.
var errValidate = errors.New("grammar: invalid")

// Validate checks every structural invariant of the SLCF model:
// terminal arities, nonterminal arities against rule ranks, parameter
// linearity and preorder ordering, start-symbol non-occurrence,
// straight-lineness, and that every referenced rule exists.
func (g *Grammar) Validate() error {
	if g.Rule(g.Start) == nil {
		// Decoded streams are untrusted: a dangling start ID must fail
		// here, not nil-deref on first use.
		return fmt.Errorf("%w: start rule N%d does not exist", errValidate, g.Start)
	}
	for _, id := range g.order {
		r := g.rules[id]
		if r == nil {
			return fmt.Errorf("%w: rule N%d in order but not stored", errValidate, id)
		}
		if r.RHS == nil {
			return fmt.Errorf("%w: rule N%d has nil RHS", errValidate, id)
		}
		if r.RHS.Label.Kind == xmltree.Parameter {
			return fmt.Errorf("%w: rule N%d RHS is a bare parameter", errValidate, id)
		}
		seen := 0
		var err error
		r.RHS.Walk(func(v *xmltree.Node) bool {
			switch v.Label.Kind {
			case xmltree.Terminal:
				if want := g.Syms.Rank(v.Label.ID); len(v.Children) != want {
					err = fmt.Errorf("%w: rule N%d: terminal %s has %d children, rank %d",
						errValidate, id, g.Syms.Name(v.Label.ID), len(v.Children), want)
				}
			case xmltree.Nonterminal:
				callee := g.Rule(v.Label.ID)
				if callee == nil {
					err = fmt.Errorf("%w: rule N%d references missing rule N%d", errValidate, id, v.Label.ID)
				} else if len(v.Children) != callee.Rank {
					err = fmt.Errorf("%w: rule N%d: call N%d has %d args, rank %d",
						errValidate, id, v.Label.ID, len(v.Children), callee.Rank)
				}
				if v.Label.ID == g.Start {
					err = fmt.Errorf("%w: start symbol occurs in rule N%d", errValidate, id)
				}
			case xmltree.Parameter:
				if len(v.Children) != 0 {
					err = fmt.Errorf("%w: rule N%d: parameter with children", errValidate, id)
				}
				if int(v.Label.ID) != seen+1 {
					err = fmt.Errorf("%w: rule N%d: parameter y%d out of order (expected y%d)",
						errValidate, id, v.Label.ID, seen+1)
				}
				seen++
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		if seen != r.Rank {
			return fmt.Errorf("%w: rule N%d has %d parameters, rank %d", errValidate, id, seen, r.Rank)
		}
	}
	if _, err := g.AntiSLOrder(); err != nil {
		return err
	}
	return nil
}

// AntiSLOrder returns all live rule IDs in anti-straight-line order:
// callees strictly before callers (so the start rule is last, and whenever
// calls*(Q,R) holds, Q precedes R). Returns an error if the grammar is
// recursive.
func (g *Grammar) AntiSLOrder() ([]int32, error) {
	const (
		gray  = 1
		black = 2
	)
	color := make([]uint8, g.nextNT)
	out := make([]int32, 0, len(g.order))
	var visit func(id int32) error
	visit = func(id int32) error {
		r := g.Rule(id)
		if r == nil {
			return fmt.Errorf("%w: missing rule N%d", errValidate, id)
		}
		switch color[id] {
		case gray:
			return fmt.Errorf("%w: recursion through N%d", errValidate, id)
		case black:
			return nil
		}
		color[id] = gray
		var err error
		r.RHS.Walk(func(v *xmltree.Node) bool {
			if err != nil {
				return false
			}
			if v.Label.Kind == xmltree.Nonterminal {
				err = visit(v.Label.ID)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		color[id] = black
		out = append(out, id)
		return nil
	}
	// Deterministic: visit in creation order; unreachable rules still get
	// a consistent position.
	for _, id := range g.order {
		if err := visit(id); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SLOrder returns rule IDs in straight-line order (callers before callees).
func (g *Grammar) SLOrder() ([]int32, error) {
	anti, err := g.AntiSLOrder()
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(anti)-1; i < j; i, j = i+1, j-1 {
		anti[i], anti[j] = anti[j], anti[i]
	}
	return anti, nil
}

// String renders the grammar in the paper's notation, one rule per line in
// creation order, start rule first.
func (g *Grammar) String() string {
	var b strings.Builder
	ids := g.RuleIDs()
	sort.Slice(ids, func(i, j int) bool {
		if ids[i] == g.Start {
			return true
		}
		if ids[j] == g.Start {
			return false
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		r := g.rules[id]
		fmt.Fprintf(&b, "N%d", id)
		if r.Rank > 0 {
			b.WriteByte('(')
			for i := 1; i <= r.Rank; i++ {
				if i > 1 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "y%d", i)
			}
			b.WriteByte(')')
		}
		b.WriteString(" -> ")
		b.WriteString(r.RHS.Format(g.Syms))
		b.WriteByte('\n')
	}
	return b.String()
}
