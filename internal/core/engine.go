package core

import (
	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// Options configures GrammarRePair.
type Options struct {
	// MaxRank is the paper's k_in (default 4): digrams whose replacement
	// rule would need more parameters are never replaced.
	MaxRank int
	// NoOptimize disables the Algorithm 6–8 optimization (ReplacementDAG
	// with fragment export) and falls back to Algorithm 5's plain
	// dependency-DAG inlining. Fig. 3 measures this mode against the
	// optimized default.
	NoOptimize bool
}

func (o Options) maxRank() int {
	if o.MaxRank <= 0 {
		return 4
	}
	return o.MaxRank
}

// Stats reports what happened during a recompression run.
type Stats struct {
	Rounds          int   // digram replacements performed
	Replaced        int   // total occurrences replaced across rounds
	InputSize       int   // |G| of the input grammar
	MaxIntermediate int   // max |G| observed after any round
	FinalSize       int   // |G| after pruning
	PrunedRules     int   // rules removed by the pruning phase
	Sizes           []int // |G| after each round (Fig. 2 / Fig. 3)
}

// Compress runs GrammarRePair (Algorithm 1) on the grammar and returns a
// new, recompressed grammar with the same val. The input grammar is not
// modified.
func Compress(in *grammar.Grammar, opt Options) (*grammar.Grammar, *Stats) {
	g := in.Clone()
	st := &Stats{InputSize: g.Size()}
	ix := newOccIndex(g, opt.maxRank())
	sc := newScratch()

	type made struct {
		term int32
		d    digram.Digram
	}
	var rules []made
	extraEdges := 0 // Σ edges of the (conceptual) X → t_X rules

	for {
		d, _, ok := ix.queue.Best()
		if !ok {
			break
		}
		x := g.Syms.Fresh("X", d.Rank(g.Syms))
		rules = append(rules, made{term: x, d: d})
		extraEdges += g.Syms.Rank(d.A) + g.Syms.Rank(d.B)

		r := newReplacer(g, ix, sc, d, x, !opt.NoOptimize)
		edited, deleted := r.run()
		st.Replaced += r.replaced
		ix.refresh(edited, deleted)

		st.Rounds++
		size := ix.totalNodes() - g.NumRules() + extraEdges
		st.Sizes = append(st.Sizes, size)
		if size > st.MaxIntermediate {
			st.MaxIntermediate = size
		}
	}

	// Materialize the X → t_X rules: every generated terminal becomes a
	// nonterminal whose rule body is its digram pattern.
	ntOf := make(map[int32]int32, len(rules))
	for _, m := range rules {
		rhs := m.d.PatternRHSIn(g.Syms, sc.arena)
		convertGenerated(rhs, ntOf)
		nr := g.NewRule(m.d.Rank(g.Syms), rhs)
		ntOf[m.term] = nr.ID
	}
	g.Rules(func(r *grammar.Rule) {
		convertGenerated(r.RHS, ntOf)
	})
	g.GarbageCollect() // X rules for digrams whose uses all got re-replaced
	st.PrunedRules = g.Prune()
	st.FinalSize = g.Size()
	// Detach the rule bodies from the run's scratch arena: a single live
	// node would otherwise keep its whole allocation chunk (and every dead
	// transient copy in it) reachable for the grammar's lifetime. The
	// final grammar is small, so one plain-heap copy per rule bounds
	// retention to the actual output.
	g.Rules(func(r *grammar.Rule) {
		r.RHS = r.RHS.Copy()
	})
	return g, st
}

// convertGenerated rewrites generated-terminal labels into nonterminal
// calls using the terminal→rule mapping.
func convertGenerated(n *xmltree.Node, ntOf map[int32]int32) {
	if n.Label.Kind == xmltree.Terminal {
		if nt, ok := ntOf[n.Label.ID]; ok {
			n.Label = xmltree.Nonterm(nt)
		}
	}
	for _, c := range n.Children {
		convertGenerated(c, ntOf)
	}
}

// CompressTree is a convenience wrapper: it wraps a plain tree into a
// single-rule grammar and runs GrammarRePair over it ("GrammarRePair
// applied to trees" in the paper's experiments).
func CompressTree(st *xmltree.SymbolTable, root *xmltree.Node, opt Options) (*grammar.Grammar, *Stats) {
	g := grammar.FromTree(st.Clone(), root.Copy())
	return Compress(g, opt)
}

// CompressDocument compresses a binary XML document.
func CompressDocument(doc *xmltree.Document, opt Options) (*grammar.Grammar, *Stats) {
	return CompressTree(doc.Syms, doc.Root, opt)
}
