// Package digram provides the digram model shared by TreeRePair and
// GrammarRePair: the digram triple (a, i, b) of Section II, the pattern
// tree t_X that a replacement rule's right-hand side takes, and Queue, the
// exact indexed max-heap that holds every digram's current frequency.
package digram

import "repro/internal/xmltree"

// Digram is the triple (a, i, b): an edge from an a-labeled node to its
// i-th (1-based) b-labeled child. A and B are terminal IDs.
type Digram struct {
	A int32
	I int
	B int32
}

// Rank returns rank(α) = rank(a) + rank(b) − 1, the number of parameters
// of the replacement rule X → t_X.
func (d Digram) Rank(st *xmltree.SymbolTable) int {
	return st.Rank(d.A) + st.Rank(d.B) - 1
}

// EqualLabels reports whether the digram has a == b; only such digrams can
// have overlapping occurrences.
func (d Digram) EqualLabels() bool { return d.A == d.B }

// Less orders digrams lexicographically; used for deterministic
// tie-breaking when two digrams have the same frequency.
func (d Digram) Less(o Digram) bool {
	if d.A != o.A {
		return d.A < o.A
	}
	if d.I != o.I {
		return d.I < o.I
	}
	return d.B < o.B
}

// PatternRHS builds the pattern t_X representing the digram:
//
//	a(y1, ..., y_{i-1}, b(y_i, ..., y_{i+n-1}), y_{i+n}, ..., y_{m+n-1})
//
// with m = rank(a) and n = rank(b). Labels stay terminal symbols; callers
// that assemble a final grammar convert generated terminals to
// nonterminal calls.
func (d Digram) PatternRHS(st *xmltree.SymbolTable) *xmltree.Node {
	return d.PatternRHSIn(st, nil)
}

// PatternRHSIn is PatternRHS with the nodes allocated from the arena
// (nil arena = heap).
func (d Digram) PatternRHSIn(st *xmltree.SymbolTable, ar *xmltree.Arena) *xmltree.Node {
	m := st.Rank(d.A)
	n := st.Rank(d.B)
	a := ar.New(xmltree.Term(d.A))
	a.Children = ar.Children(m)
	p := 1
	for k := 0; k < m; k++ {
		if k == d.I-1 {
			b := ar.New(xmltree.Term(d.B))
			b.Children = ar.Children(n)
			for j := 0; j < n; j++ {
				b.Children[j] = ar.New(xmltree.Param(p))
				p++
			}
			a.Children[k] = b
		} else {
			a.Children[k] = ar.New(xmltree.Param(p))
			p++
		}
	}
	return a
}
