package core

import (
	"repro/internal/digram"
	"repro/internal/freelist"
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
//
// Compress is safe for concurrent use; it only reads its input. It
// reuses its scratch from one run to the next: each run takes an
// emptied run state (occurrence index, node arena, replacer tables)
// from a free list and hands it back once the output has been copied out
// of it, so a warm run allocates its output, not its index.
func Compress(in *grammar.Grammar, opt Options) (*grammar.Grammar, *Stats) {
	rs := runStates.Get()
	g, st := rs.compress(in, opt)
	rs.release()
	runStates.Put(rs)
	return g, st
}

// Unpruned runs Compress up to its pruning phase and returns the grammar
// Compress hands to Prune, so that benchmarks can time Prune alone. Its
// rule bodies live in the run's arena, so the run state is never reused.
func Unpruned(in *grammar.Grammar, opt Options) *grammar.Grammar {
	g, _, _ := newRunState().replaceDigrams(in, opt)
	return g
}

// runState is the scratch of one GrammarRePair run: the occurrence index,
// the replacer scratch with its node arena, and the run's own lists.
// Between runs it is empty (release) and keeps every capacity.
type runState struct {
	ix    occIndex
	sc    *scratch
	rules []made
	ntOf  map[int32]int32
}

// made records the generated terminal standing for the X rule of one
// round's digram.
type made struct {
	term int32
	d    digram.Digram
}

// runStates holds the idle run states Compress reuses.
var runStates = freelist.List[runState]{New: newRunState}

func newRunState() *runState {
	return &runState{sc: newScratch(), ntOf: make(map[int32]int32)}
}

// release empties the run state for the next run. Nothing it handed out
// may still be in use: the arena's nodes are zeroed and reused.
func (rs *runState) release() {
	rs.ix.release()
	rs.sc.release()
	rs.rules = rs.rules[:0]
	clear(rs.ntOf)
}

// compress is Compress on this run state.
func (rs *runState) compress(in *grammar.Grammar, opt Options) (*grammar.Grammar, *Stats) {
	g, st, syms := rs.replaceDigrams(in, opt)
	st.PrunedRules = g.Prune()
	// Every generated terminal is a nonterminal now; drop them from the
	// table, or each run would leave one dead terminal per round behind.
	g.Syms.Truncate(syms)
	st.FinalSize = g.Size()
	// Detach the rule bodies from the run's arena, which the next run
	// reuses. The final grammar is small, so one plain-heap copy per
	// rule bounds the output to what it holds.
	g.Rules(func(r *grammar.Rule) {
		r.RHS = r.RHS.Copy()
	})
	return g, st
}

// replaceDigrams runs the replacement rounds of Compress on a clone of
// in (in the run's arena) and materializes the X rules. It returns the
// unpruned grammar, the run's stats so far, and the symbol-table length
// before the run.
func (rs *runState) replaceDigrams(in *grammar.Grammar, opt Options) (*grammar.Grammar, *Stats, int) {
	sc := rs.sc
	g := in.CloneIn(sc.arena)
	syms := g.Syms.Len()
	st := &Stats{InputSize: g.Size()}
	ix := &rs.ix
	ix.init(g, opt.maxRank())

	rules := rs.rules[:0]
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
		edited, _ := r.run()
		st.Replaced += r.replaced
		ix.refresh(edited)

		st.Rounds++
		size := ix.nodes - g.NumRules() + extraEdges
		st.Sizes = append(st.Sizes, size)
		if size > st.MaxIntermediate {
			st.MaxIntermediate = size
		}
	}
	rs.rules = rules

	// Materialize the X → t_X rules: every generated terminal becomes a
	// nonterminal whose rule body is its digram pattern.
	ntOf := rs.ntOf
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
	return g, st, syms
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
	// Compress neither modifies its input nor keeps it, so the wrapper
	// can share the tree and the table.
	return Compress(grammar.FromTree(st, root), opt)
}

// CompressDocument compresses a binary XML document.
func CompressDocument(doc *xmltree.Document, opt Options) (*grammar.Grammar, *Stats) {
	return CompressTree(doc.Syms, doc.Root, opt)
}
