package digram

import (
	"testing"

	"repro/internal/xmltree"
)

func TestRankAndPattern(t *testing.T) {
	st := xmltree.NewSymbolTable()
	a := st.InternElement("a") // rank 2
	b := st.InternElement("b") // rank 2
	d := Digram{A: a, I: 1, B: b}
	if d.Rank(st) != 3 {
		t.Fatalf("rank = %d, want 3", d.Rank(st))
	}
	// Pattern for (a,1,b): a(b(y1,y2), y3).
	p := d.PatternRHS(st)
	if got := p.Format(st); got != "a(b(y1,y2),y3)" {
		t.Fatalf("pattern = %s", got)
	}
	// Pattern for (a,2,b): a(y1, b(y2,y3)).
	d2 := Digram{A: a, I: 2, B: b}
	if got := d2.PatternRHS(st).Format(st); got != "a(y1,b(y2,y3))" {
		t.Fatalf("pattern = %s", got)
	}
}

func TestPatternWithBottom(t *testing.T) {
	st := xmltree.NewSymbolTable()
	a := st.InternElement("a")
	d := Digram{A: a, I: 1, B: xmltree.BottomID}
	if d.Rank(st) != 1 {
		t.Fatalf("rank = %d, want 1", d.Rank(st))
	}
	if got := d.PatternRHS(st).Format(st); got != "a(⊥,y1)" {
		t.Fatalf("pattern = %s", got)
	}
	if d.PatternRHS(st).MaxParam() != 1 {
		t.Fatal("pattern must have exactly one parameter")
	}
}

func TestPatternParameterLinearity(t *testing.T) {
	st := xmltree.NewSymbolTable()
	a := st.Intern("a", 3)
	b := st.Intern("b", 2)
	for i := 1; i <= 3; i++ {
		d := Digram{A: a, I: i, B: b}
		p := d.PatternRHS(st)
		if p.MaxParam() != 4 {
			t.Fatalf("pattern rank must be 4, got %d", p.MaxParam())
		}
		// Every parameter 1..4 exactly once, in preorder order.
		seen := 0
		ok := true
		p.Walk(func(n *xmltree.Node) bool {
			if n.Label.Kind == xmltree.Parameter {
				seen++
				if int(n.Label.ID) != seen {
					ok = false
				}
			}
			return true
		})
		if !ok || seen != 4 {
			t.Fatalf("pattern params broken at i=%d: %s", i, p)
		}
	}
}

func TestEqualLabelsAndLess(t *testing.T) {
	d1 := Digram{A: 1, I: 1, B: 1}
	d2 := Digram{A: 1, I: 1, B: 2}
	d3 := Digram{A: 1, I: 2, B: 1}
	if !d1.EqualLabels() || d2.EqualLabels() {
		t.Fatal("EqualLabels wrong")
	}
	if !d1.Less(d2) || !d1.Less(d3) || d2.Less(d1) {
		t.Fatal("Less ordering wrong")
	}
	if !d2.Less(d3) { // I compared before B
		t.Fatal("Less must order by A, then I, then B")
	}
}

func TestQueueBasic(t *testing.T) {
	var q Queue
	d1 := Digram{A: 1, I: 1, B: 2}
	d2 := Digram{A: 2, I: 1, B: 3}
	q.Update(d1, 5)
	q.Update(d2, 9)
	d, c, ok := q.Best()
	if !ok || d != d2 || c != 9 {
		t.Fatalf("best = %v/%v, want d2/9", d, c)
	}
	// d2's count changed after it was queued: its entry moves down.
	q.Update(d2, 9) // same count: the entry stays put
	q.Update(d2, 3)
	d, c, ok = q.Best()
	if !ok || d != d1 || c != 5 {
		t.Fatalf("best = %v/%v, want d1/5", d, c)
	}
}

func TestQueueCountBelowTwo(t *testing.T) {
	var q Queue
	d := Digram{A: 1, I: 1, B: 2}
	q.Update(d, 1)
	if _, _, ok := q.Best(); ok {
		t.Fatal("count 1 must never be selected")
	}
}

func TestQueueDeterministicTieBreak(t *testing.T) {
	var q Queue
	d1 := Digram{A: 2, I: 1, B: 2}
	d2 := Digram{A: 1, I: 1, B: 2}
	q.Update(d1, 4)
	q.Update(d2, 4)
	d, _, ok := q.Best()
	if !ok || d != d2 {
		t.Fatalf("tie must break to lexicographically smaller digram, got %v", d)
	}
}

func TestQueueResetAndLen(t *testing.T) {
	var q Queue
	q.Update(Digram{A: 1, I: 1, B: 1}, 2)
	if q.Len() != 1 {
		t.Fatal("len wrong")
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("reset failed")
	}
}
