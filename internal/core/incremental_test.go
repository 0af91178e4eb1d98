package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/digram"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// differential runs GrammarRePair's replacement rounds on a clone of in
// with the incremental occIndex driving them and the full-rescan refIndex
// refreshed beside it on the same grammar, and after the initial build
// and every round asserts that both hold the same state.
func differential(t *testing.T, name string, in *grammar.Grammar, opt Options) {
	t.Helper()
	g := in.Clone()
	ix := newOccIndex(g, opt.maxRank())
	ref := newRefIndex(g, opt.maxRank())
	sc := newScratch()
	checkAgainstOracle(t, name+"/build", ix, ref)
	for round := 1; ; round++ {
		d, c, ok := ix.queue.Best()
		rd, rc, rok := ref.queue.Best()
		if d != rd || c != rc || ok != rok {
			t.Fatalf("%s round %d: best %v/%v/%v, oracle %v/%v/%v", name, round, d, c, ok, rd, rc, rok)
		}
		if !ok {
			return
		}
		if got, want := ix.rulesWithGenerators(d), ref.rulesWithGenerators(d); !slices.Equal(got, want) {
			t.Fatalf("%s round %d: rules with generators %v, oracle %v", name, round, got, want)
		}
		x := g.Syms.Fresh("X", d.Rank(g.Syms))
		r := newReplacer(g, ix, sc, d, x, !opt.NoOptimize)
		refs := g.RefCounts()
		edited, deleted := r.run()
		for id, want := range refs {
			if got := ix.refCount0(int32(id)); got != want {
				t.Fatalf("%s round %d: N%d round-start count %d, want %d", name, round, id, got, want)
			}
		}
		ix.refresh(edited)
		ref.refresh(edited, deleted)
		at := fmt.Sprintf("%s round %d (%v)", name, round, d)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid grammar: %v", at, err)
		}
		// The anchored replacement must leave no explicit occurrence a
		// whole-body scan would still replace.
		g.Rules(func(rule *grammar.Rule) {
			cp := &grammar.Rule{ID: rule.ID, Rank: rule.Rank, RHS: rule.RHS.Copy()}
			if n := replaceDigramScan(cp, d.A, d.I, d.B, x, nil); n != 0 {
				t.Fatalf("%s: rule N%d keeps %d explicit occurrences", at, rule.ID, n)
			}
		})
		checkAgainstOracle(t, at, ix, ref)
	}
}

// checkAgainstOracle compares every piece of index state with the
// full-rescan oracle's.
func checkAgainstOracle(t *testing.T, at string, ix *occIndex, ref *refIndex) {
	t.Helper()
	g := ix.g
	if ix.queue.Len() != ref.queue.Len() {
		t.Fatalf("%s: %d queued digrams, oracle %d", at, ix.queue.Len(), ref.queue.Len())
	}
	if got, want := ix.nodes, ref.totalNodes(); got != want || got != g.NodeCount() {
		t.Fatalf("%s: %d nodes, oracle %d, grammar %d", at, got, want, g.NodeCount())
	}
	for id, want := range g.RefCounts() {
		got := 0
		if id < len(ix.sites) {
			got = len(ix.sites[id])
		}
		if got != want {
			t.Fatalf("%s: N%d has %d call sites, want %d", at, id, got, want)
		}
	}
	live := make(map[int32]bool)
	for _, rid := range g.RuleIDs() {
		live[rid] = true
	}
	for rid, ro := range ix.perRule {
		if (ro != nil) != live[int32(rid)] {
			t.Fatalf("%s: index entry of N%d present=%v, rule live=%v", at, rid, ro != nil, live[int32(rid)])
		}
	}
	// Per-equal-label-digram generator counts, to compare with genSet,
	// and every digram with a generator on either side, to compare the
	// per-digram rule sets.
	eqGens := make(map[digram.Key]int)
	held := make(map[digram.Key]bool)
	for _, rid := range g.RuleIDs() {
		ro, rr := ix.perRule[rid], ref.perRule[rid]
		rule := g.Rule(rid)
		checkNodeTable(t, at, ix, rule)
		if ro.nodes != rr.nodes {
			t.Fatalf("%s: N%d has %d nodes, oracle %d", at, rid, ro.nodes, rr.nodes)
		}
		if !slices.Equal(ro.calls, rr.calls) {
			t.Fatalf("%s: N%d calls %v, oracle %v", at, rid, ro.calls, rr.calls)
		}
		if ix.usage[rid] != ref.usage[rid] || ro.usageApplied != rr.usageApplied {
			t.Fatalf("%s: N%d usage %v/%v, oracle %v/%v", at, rid, ix.usage[rid], ro.usageApplied, ref.usage[rid], rr.usageApplied)
		}
		if got, want := ro.root, *ref.rootMemo[rid]; got != want {
			t.Fatalf("%s: N%d root resolves to %v, oracle %v", at, rid, got, want)
		}
		if !slices.Equal(ro.params, ref.ifaces[rid].params) {
			t.Fatalf("%s: N%d parameter parents %v, oracle %v", at, rid, ro.params, ref.ifaces[rid].params)
		}
		keys := make(map[digram.Key]bool)
		for _, l := range ro.lists {
			if len(l.nodes) > 0 {
				keys[l.key] = true
			}
		}
		rr.gens.Range(func(k digram.Key, gens *[]*xmltree.Node) bool {
			if len(*gens) > 0 {
				keys[k] = true
			}
			return true
		})
		for k := range keys {
			held[k] = true
			d := k.Digram()
			rgens, _ := rr.gens.Get(k)
			got, want := sortedNodes(ix.generators(rid, d)), sortedNodes(rgens)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: N%d generators of %v: %d, oracle %d", at, rid, d, len(got), len(want))
			}
			if ix.queue.Count(d) != ref.queue.Count(d) {
				t.Fatalf("%s: count(%v) = %v, oracle %v", at, d, ix.queue.Count(d), ref.queue.Count(d))
			}
			if d.EqualLabels() {
				eqGens[k] += len(got)
			}
		}
	}
	listed := 0
	for k := range held {
		d := k.Digram()
		got, want := ix.rulesWithGenerators(d), ref.rulesWithGenerators(d)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: rules with generators of %v: %v, oracle %v", at, d, got, want)
		}
		listed += len(got)
	}
	// No holder entry outside those digrams.
	total := 0
	for _, rs := range ix.holders {
		total += len(rs)
	}
	if total != listed {
		t.Fatalf("%s: %d holder entries, %d for digrams with generators", at, total, listed)
	}
	ref.genSet.Range(func(k digram.Key, set *map[*xmltree.Node]bool) bool {
		for n := range *set {
			if !ix.isGen(n, k) {
				t.Fatalf("%s: genSet(%v) member is not a stored generator", at, k.Digram())
			}
		}
		if len(*set) != eqGens[k] {
			t.Fatalf("%s: genSet(%v) has %d members, index %d", at, k.Digram(), len(*set), eqGens[k])
		}
		return true
	})
}

// checkNodeTable asserts that the index's node table records every node
// of the rule at its real place.
func checkNodeTable(t *testing.T, at string, ix *occIndex, rule *grammar.Rule) {
	t.Helper()
	rule.RHS.WalkParent(func(n, p *xmltree.Node, i int) bool {
		e := ix.tab.get(n)
		switch {
		case e == nil:
			t.Fatalf("%s: N%d node %v not in the node table", at, rule.ID, n.Label)
		case e.parent != p || int(e.idx) != i || e.rule != rule.ID || e.flags&(nodeDead|nodePending) != 0:
			t.Fatalf("%s: N%d node entry (parent %p idx %d rule %d flags %b), want (%p %d %d)",
				at, rule.ID, e.parent, e.idx, e.rule, e.flags, p, i, rule.ID)
		}
		return true
	})
}

func sortedNodes(ns []*xmltree.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("%p", n)
	}
	slices.Sort(out)
	return out
}

func bothModes(t *testing.T, name string, g *grammar.Grammar) {
	t.Helper()
	differential(t, name+"/opt", g, Options{})
	differential(t, name+"/noopt", g, Options{NoOptimize: true})
}

// TestIncrementalIndexMatchesOracleParityCorpora runs the differential on
// the parity corpora: each document as a one-rule grammar, and its
// TreeRePair grammar degraded by renames.
func TestIncrementalIndexMatchesOracleParityCorpora(t *testing.T) {
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	for _, c := range datasets.Corpora() {
		doc := c.Generate(scale, 20160516).Binary()
		bothModes(t, c.Short+"/tree", grammar.FromTree(doc.Syms.Clone(), doc.Root.Copy()))
		tg, _ := treerepair.Compress(doc, treerepair.Options{})
		if err := update.ApplyAll(tg, workload.Renames(doc, 40, 7)); err != nil {
			t.Fatal(err)
		}
		bothModes(t, c.Short+"/renamed", tg)
	}
}

// TestIncrementalIndexMatchesOracleGn runs the differential on the Fig. 3
// exponential family.
func TestIncrementalIndexMatchesOracleGn(t *testing.T) {
	for n := 1; n <= 12; n++ {
		bothModes(t, fmt.Sprintf("G%d", n), datasets.Gn(n))
	}
}

// TestIncrementalIndexMatchesOracleRandomUpdates runs the differential on
// seeded random documents over one or two labels (so equal-label digrams
// and their overlaps abound), compressed by TreeRePair and then degraded
// by inserts and deletes, and on their GrammarRePair recompressions.
func TestIncrementalIndexMatchesOracleRandomUpdates(t *testing.T) {
	seeds := int64(160)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := randomUnranked(rng, 30+rng.Intn(300), []string{"a", "b"}[:1+rng.Intn(2)])
		seq, err := workload.Updates(u, 10+rng.Intn(40), 60, seed)
		if err != nil {
			t.Fatal(err)
		}
		degradedDifferential(t, fmt.Sprintf("seed%d", seed), seq, Options{})
	}
	// Larger documents over up to three labels, with any insert share.
	// Seed 1615 is the first of 5,000 on which skipping the cross-call
	// equal-label re-check diverges from the oracle.
	for _, seed := range []int64{1615} {
		rng := rand.New(rand.NewSource(seed))
		u := randomUnranked(rng, 30+rng.Intn(600), []string{"a", "b", "c"}[:1+rng.Intn(3)])
		seq, err := workload.Updates(u, 10+rng.Intn(80), rng.Intn(100), seed)
		if err != nil {
			t.Fatal(err)
		}
		degradedDifferential(t, fmt.Sprintf("wide%d", seed), seq, Options{NoOptimize: rng.Intn(2) == 0})
	}
}

// degradedDifferential compresses the sequence's seed document with
// TreeRePair, applies its updates, and runs the differential in both
// modes on the result and on its recompression with opt.
func degradedDifferential(t *testing.T, name string, seq *workload.Sequence, opt Options) {
	t.Helper()
	g, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
	if err := update.ApplyAll(g, seq.Ops); err != nil {
		t.Fatal(err)
	}
	bothModes(t, name, g)
	g2, _ := Compress(g, opt)
	bothModes(t, name+"/recompressed", g2)
}

// combGrammar builds a one-rule grammar over N+1 distinct filler labels:
// a right comb f0(·, f1(·, … fN(⊥, ⊥))) whose first k fillers carry an
// a(b(⊥, ⊥), ⊥) first child. Every digram except the four inside the
// hung patterns occurs once, so the first round replaces (a,1,b) exactly
// k times, near the root, whatever N is.
func combGrammar(n, k int) *grammar.Grammar {
	st := xmltree.NewSymbolTable()
	a := st.InternElement("a")
	b := st.InternElement("b")
	var spine *xmltree.Node = xmltree.NewBottom()
	for j := n; j >= 0; j-- {
		first := xmltree.NewBottom()
		if j < k {
			first = xmltree.New(xmltree.Term(a),
				xmltree.New(xmltree.Term(b), xmltree.NewBottom(), xmltree.NewBottom()),
				xmltree.NewBottom())
		}
		f := st.InternElement(fmt.Sprintf("f%d", j))
		spine = xmltree.New(xmltree.Term(f), first, spine)
	}
	return grammar.FromTree(st, spine)
}

// TestRoundWorkIndependentOfRuleSize pins the index's complexity: a round
// replacing k occurrences in a start rule of N nodes re-evaluates the
// same number of edges for N ≈ 1k and N ≈ 10k. A refactor that brings a
// whole-rule rescan back fails here.
func TestRoundWorkIndependentOfRuleSize(t *testing.T) {
	const k = 8
	work := func(n int) int {
		g := combGrammar(n, k)
		ix := newOccIndex(g, 4)
		d, _, ok := ix.queue.Best()
		if !ok || d.A != 1 || d.I != 1 || d.B != 2 {
			t.Fatalf("N=%d: best digram %v, want (a,1,b)", n, d)
		}
		x := g.Syms.Fresh("X", d.Rank(g.Syms))
		before := ix.resolutions
		r := newReplacer(g, ix, newScratch(), d, x, true)
		edited, _ := r.run()
		ix.refresh(edited)
		if r.replaced != k {
			t.Fatalf("N=%d: replaced %d occurrences, want %d", n, r.replaced, k)
		}
		return ix.resolutions - before
	}
	small, large := work(1000), work(10000)
	t.Logf("edge evaluations: %d at N=1000, %d at N=10000", small, large)
	if small != large {
		t.Fatalf("round work grows with the rule: %d edge evaluations at N=1000, %d at N=10000", small, large)
	}
	if small > 10*k {
		t.Fatalf("round re-evaluated %d edges for %d replacements", small, k)
	}
}

// TestRepeatedRecompressionKeepsSymbolTable checks that back-to-back
// recompressions neither grow the symbol table nor the encoding: each
// run's generated terminals are dropped once they became nonterminals.
func TestRepeatedRecompressionKeepsSymbolTable(t *testing.T) {
	c, _ := datasets.ByShort("XM")
	doc := c.Generate(0.02, 20160516).Binary()
	g, _ := treerepair.Compress(doc, treerepair.Options{})
	if g.Syms.Len() != doc.Syms.Len() {
		t.Fatalf("TreeRePair left %d terminals, document has %d", g.Syms.Len(), doc.Syms.Len())
	}
	if err := update.ApplyAll(g, workload.Renames(doc, 40, 7)); err != nil {
		t.Fatal(err)
	}
	want := g.Syms.Len()
	firstBytes := 0
	for run := 0; run < 5; run++ {
		g, _ = Compress(g, Options{})
		if g.Syms.Len() != want {
			t.Fatalf("run %d: %d terminals, input had %d", run, g.Syms.Len(), want)
		}
		var buf bytes.Buffer
		if err := grammar.Encode(&buf, g); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			firstBytes = buf.Len()
		} else if buf.Len() > firstBytes+firstBytes/10 {
			t.Fatalf("run %d: encoding grew to %d bytes from %d", run, buf.Len(), firstBytes)
		}
	}
}
