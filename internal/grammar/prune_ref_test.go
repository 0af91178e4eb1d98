package grammar

// This file keeps the whole-grammar Prune that the call-site-list pruner
// replaced, as a test oracle: refPrune finds the calls of every rule it
// inlines by walking every live rule's body, and keeps a dense refcount
// slice. pruneDiff runs both on clones of one grammar and compares their
// encodings byte for byte.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/xmltree"
)

// refInlineEverywhere replaces every call of rule id in every other
// rule's body by a fresh instance of its body and deletes the rule.
func refInlineEverywhere(g *Grammar, id int32) {
	target := g.Rule(id)
	for _, rid := range g.order {
		if rid != id {
			refInlineCallsIn(g.rules[rid], target)
		}
	}
	g.DeleteRule(id)
}

// refInlineCallsIn replaces every call of target inside host's RHS.
func refInlineCallsIn(host *Rule, target *Rule) {
	var rec func(n *xmltree.Node) *xmltree.Node
	rec = func(n *xmltree.Node) *xmltree.Node {
		// Children first, so nested calls inside arguments are rewritten
		// before the argument subtrees get spliced into a body.
		for i, c := range n.Children {
			n.Children[i] = rec(c)
		}
		if n.Label.Kind == xmltree.Nonterminal && n.Label.ID == target.ID {
			return SubstituteParams(target.RHS.Copy(), n.Children)
		}
		return n
	}
	host.RHS = rec(host.RHS)
}

// refInlineEverywhereRefs is refInlineEverywhere with refcount upkeep:
// with k call sites, every nonterminal occurring n times in the inlined
// body gains (k-1)·n references and the inlined rule drops to zero.
func refInlineEverywhereRefs(g *Grammar, id int32, refs []int) {
	k := refs[id]
	rhs := g.Rule(id).RHS
	refInlineEverywhere(g, id)
	rhs.Walk(func(v *xmltree.Node) bool {
		if v.Label.Kind == xmltree.Nonterminal {
			refs[v.Label.ID] += k - 1
		}
		return true
	})
	refs[id] = 0
}

// refDeleteRuleRefs deletes a rule and its body's references.
func refDeleteRuleRefs(g *Grammar, id int32, refs []int) {
	g.Rule(id).RHS.Walk(func(v *xmltree.Node) bool {
		if v.Label.Kind == xmltree.Nonterminal {
			refs[v.Label.ID]--
		}
		return true
	})
	g.DeleteRule(id)
}

// refPrune is the whole-grammar Prune: same passes, same order.
func refPrune(g *Grammar) int {
	removed := 0
	refs := g.RefCounts()
	for {
		changed := false
		for _, id := range g.RuleIDs() {
			if id == g.Start || g.Rule(id) == nil {
				continue
			}
			if refs[id] == 1 {
				refInlineEverywhereRefs(g, id, refs)
				removed++
				changed = true
			} else if refs[id] == 0 {
				refDeleteRuleRefs(g, id, refs)
				removed++
				changed = true
			}
		}
		anti, err := g.AntiSLOrder()
		if err != nil {
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
			if Sav(refs[id], r.RHS.Edges(), r.Rank) < 0 {
				refInlineEverywhereRefs(g, id, refs)
				removed++
				changed = true
			}
		}
		if !changed {
			return removed
		}
	}
}

// pruneDiff prunes two clones of g, one with Prune and one with refPrune,
// and reports any difference in the removed counts or the encodings, and
// a Prune result that fails validation. g itself is not modified.
func pruneDiff(g *Grammar) error {
	a, b := g.Clone(), g.Clone()
	na, nb := a.Prune(), refPrune(b)
	if err := a.Validate(); err != nil {
		return fmt.Errorf("pruned grammar invalid: %v", err)
	}
	var ea, eb bytes.Buffer
	if err := Encode(&ea, a); err != nil {
		return err
	}
	if err := Encode(&eb, b); err != nil {
		return err
	}
	if na != nb {
		return fmt.Errorf("Prune removed %d rules, refPrune %d", na, nb)
	}
	if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
		return fmt.Errorf("encodings differ:\nPrune:\n%srefPrune:\n%s", a, b)
	}
	return nil
}

// pruneCases are the hand-built grammars of surgery_test.go and
// grammar_test.go plus the shapes the call-site lists must get right:
// several sites, calls nested in arguments of the same rule, a call at a
// rule root (before and after inlining), and unreachable chains whose
// callees were created first.
func pruneCases(t *testing.T) map[string]*Grammar {
	t.Helper()
	cases := make(map[string]*Grammar)
	cases["chain"], _, _ = chainGrammar(t)
	cases["paper"], _, _ = paperGrammar(t)

	st := xmltree.NewSymbolTable()
	f := st.InternElement("f")
	h := st.Intern("h", 1)
	a := st.Intern("a", 0)
	z := st.Intern("z", 0)
	leaf := func(s int32) *xmltree.Node { return xmltree.New(xmltree.Term(s)) }
	call := func(r *Rule, args ...*xmltree.Node) *xmltree.Node {
		return xmltree.New(xmltree.Nonterm(r.ID), args...)
	}
	param := func(i int) *xmltree.Node { return xmltree.New(xmltree.Param(i)) }

	// Three sites of a rank-0 rule (sav = 3·1−1 = 2, kept) and of a
	// rank-2 rule with sav < 0.
	g := New(st.Clone())
	A := g.NewRule(0, xmltree.New(xmltree.Term(h), leaf(a)))
	B := g.NewRule(2, xmltree.New(xmltree.Term(f), param(1), param(2)))
	g.StartRule().RHS = xmltree.New(xmltree.Term(f),
		call(B, call(A), call(A)), call(B, call(A), leaf(z)))
	cases["multi-site"] = g

	// B(B(B(⊥))): every site of B nested in the argument of another.
	g = New(st.Clone())
	B = g.NewRule(1, xmltree.New(xmltree.Term(h), param(1)))
	g.StartRule().RHS = xmltree.New(xmltree.Term(f),
		call(B, call(B, call(B, xmltree.NewBottom()))), xmltree.NewBottom())
	cases["nested-in-argument"] = g

	// Rule roots: S's body is a call, and C's body root is a call of D,
	// so inlining C makes its call sites calls of D.
	g = New(st.Clone())
	D := g.NewRule(1, xmltree.New(xmltree.Term(f), param(1), leaf(z)))
	C := g.NewRule(1, call(D, xmltree.New(xmltree.Term(h), param(1))))
	E := g.NewRule(0, call(C, call(C, leaf(a))))
	g.StartRule().RHS = call(C, call(E))
	cases["rule-root"] = g

	// An unreachable chain U3 → U2 → U1 created callee-first, so pass 1
	// deletes U3 only after it passed U1 and U2; and a dead rule that
	// holds the other references of a live rule's callee.
	g = New(st.Clone())
	U1 := g.NewRule(0, xmltree.New(xmltree.Term(h), leaf(a)))
	U2 := g.NewRule(0, xmltree.New(xmltree.Term(f), call(U1), call(U1)))
	g.NewRule(0, xmltree.New(xmltree.Term(f), call(U2), call(U2)))
	K := g.NewRule(0, xmltree.New(xmltree.Term(h), xmltree.New(xmltree.Term(h), leaf(z))))
	g.NewRule(0, xmltree.New(xmltree.Term(f), call(K), call(K)))
	g.StartRule().RHS = xmltree.New(xmltree.Term(f), call(K), call(K))
	cases["unreachable-chain"] = g

	for name, g := range cases {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return cases
}

func TestPruneMatchesRefCases(t *testing.T) {
	for name, g := range pruneCases(t) {
		if err := pruneDiff(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// randomGrammar builds a valid SLCF grammar of up to 12 rules over f
// (rank 2), h (rank 1) and two leaves. A random permutation fixes the
// call order independently of the creation order, rules call later
// rules of the permutation (nested in each other's arguments, at body
// roots, several times or not at all), and each rule turns a random
// subset of its leaves into its parameters.
func randomGrammar(rng *rand.Rand) *Grammar {
	st := xmltree.NewSymbolTable()
	f := st.InternElement("f")
	h := st.Intern("h", 1)
	leaves := []int32{st.Intern("a", 0), st.Intern("b", 0)}
	g := New(st)
	n := 1 + rng.Intn(12)
	rules := make([]*Rule, n)
	for i := range rules {
		rules[i] = g.NewRule(0, xmltree.NewBottom())
	}
	perm := rng.Perm(n)
	var gen func(callees []*Rule, depth int) *xmltree.Node
	gen = func(callees []*Rule, depth int) *xmltree.Node {
		k := rng.Intn(10)
		switch {
		case depth > 4 || k < 2:
			return xmltree.New(xmltree.Term(leaves[rng.Intn(len(leaves))]))
		case k < 6 && len(callees) > 0:
			c := callees[rng.Intn(len(callees))]
			nd := xmltree.New(xmltree.Nonterm(c.ID))
			for j := 0; j < c.Rank; j++ {
				nd.Children = append(nd.Children, gen(callees, depth+1))
			}
			return nd
		case k < 8:
			return xmltree.New(xmltree.Term(h), gen(callees, depth+1))
		default:
			return xmltree.New(xmltree.Term(f), gen(callees, depth+1), gen(callees, depth+1))
		}
	}
	// Callees first: the rule at perm[i] may call the rules at
	// perm[i+1:], whose ranks are known by then.
	for i := n - 1; i >= 0; i-- {
		var callees []*Rule
		for _, j := range perm[i+1:] {
			callees = append(callees, rules[j])
		}
		r := rules[perm[i]]
		r.RHS = gen(callees, 0)
		if len(r.RHS.Children) == 0 {
			continue // a bare leaf body cannot become a parameter
		}
		rank := 0
		r.RHS.Walk(func(v *xmltree.Node) bool {
			if v != r.RHS && v.Label.Kind == xmltree.Terminal && len(v.Children) == 0 && rank < 3 && rng.Intn(3) == 0 {
				rank++
				v.Label = xmltree.Param(rank)
			}
			return true
		})
		r.Rank = rank
	}
	// The start rule calls a random handful of rules.
	var all []*Rule
	for _, j := range rng.Perm(n)[:1+rng.Intn(n)] {
		all = append(all, rules[j])
	}
	g.StartRule().RHS = xmltree.New(xmltree.Term(f), gen(all, 0), gen(all, 0))
	return g
}

func TestPruneMatchesRefRandom(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 300
	}
	for seed := 0; seed < seeds; seed++ {
		g := randomGrammar(rand.New(rand.NewSource(int64(seed))))
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: generator built an invalid grammar: %v\n%s", seed, err, g)
		}
		if err := pruneDiff(g); err != nil {
			t.Fatalf("seed %d: %v\ninput:\n%s", seed, err, g)
		}
	}
}

// TestPruneWorkIndependentOfGrammarSize prunes the same k single-reference
// rules next to 1,000 and next to 10,000 nodes that no pruned rule calls
// or is called from, and asserts that both prunes touch the same number
// of nodes: an inline visits its call sites and its body, never the
// rest of the grammar.
func TestPruneWorkIndependentOfGrammarSize(t *testing.T) {
	const k = 8
	visits := func(unrelated int) int {
		st := xmltree.NewSymbolTable()
		f := st.InternElement("f")
		h := st.Intern("h", 1)
		a := st.Intern("a", 0)
		g := New(st)
		// S → f(R_1(R_2(…R_k(a)…)), h(h(…h(a)…))) with R_i(y) → f(y, a):
		// each R_i has one reference; the h chain is unrelated.
		var calls *xmltree.Node = xmltree.New(xmltree.Term(a))
		for i := 0; i < k; i++ {
			r := g.NewRule(1, xmltree.New(xmltree.Term(f), xmltree.New(xmltree.Param(1)), xmltree.New(xmltree.Term(a))))
			calls = xmltree.New(xmltree.Nonterm(r.ID), calls)
		}
		chain := xmltree.New(xmltree.Term(a))
		for i := 1; i < unrelated; i++ {
			chain = xmltree.New(xmltree.Term(h), chain)
		}
		g.StartRule().RHS = xmltree.New(xmltree.Term(f), calls, chain)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		p := newPruner(g)
		if removed := p.run(); removed != k {
			t.Fatalf("removed %d rules, want %d", removed, k)
		}
		if g.NumRules() != 1 {
			t.Fatalf("%d rules left, want only the start rule", g.NumRules())
		}
		return p.visits
	}
	small, large := visits(1000), visits(10000)
	t.Logf("visits: %d next to 1,000 nodes, %d next to 10,000", small, large)
	if small != large {
		t.Fatalf("pruning %d rules visited %d nodes next to 1,000 unrelated nodes but %d next to 10,000", k, small, large)
	}
}
