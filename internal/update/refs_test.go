package update_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// collectAndCheck ends a batch: the rules Collect deletes must be
// exactly the ones GarbageCollect's reachability walk removes from a
// clone, and afterwards the counts must equal a recount and |G| a walk.
func collectAndCheck(t testing.TB, g *grammar.Grammar, c *update.Cache, when string) {
	t.Helper()
	clone := g.Clone()
	want := clone.GarbageCollect()
	if got := c.Collect(g); got != want {
		t.Fatalf("%s: collected %d rules, GarbageCollect removes %d", when, got, want)
	}
	if !slices.Equal(g.RuleIDs(), clone.RuleIDs()) {
		t.Fatalf("%s: collected rules %v, GarbageCollect keeps %v", when, g.RuleIDs(), clone.RuleIDs())
	}
	if c.Stranded() {
		t.Fatalf("%s: rules still pending after Collect", when)
	}
	if err := c.Verify(g); err != nil {
		t.Fatalf("%s: after Collect: %v", when, err)
	}
	if got, want := c.GrammarSize(g), g.Size(); got != want {
		t.Fatalf("%s: |G| %d, walk %d", when, got, want)
	}
}

// TestRefsMatchRecount drives seeded random op streams through
// ApplyCached on corpus grammars and checks the cache's reference
// counts, pending-collection list and |G| against a from-scratch
// recount after every op; batches of random length end with a
// collection that must match GarbageCollect on a clone.
func TestRefsMatchRecount(t *testing.T) {
	for _, short := range []string{"EW", "XM", "TB", "MD"} {
		for _, naive := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/naive=%v", short, naive), func(t *testing.T) {
				c, _ := datasets.ByShort(short)
				seq, err := workload.Updates(c.Generate(0.03, 3), 240, 60, 11)
				if err != nil {
					t.Fatal(err)
				}
				g, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
				cache := update.Cache{Naive: naive}
				rng := rand.New(rand.NewSource(7))
				collected := 0
				for i := 0; i < len(seq.Ops); {
					for n := 1 + rng.Intn(12); n > 0 && i < len(seq.Ops); n, i = n-1, i+1 {
						if err := update.ApplyCached(g, seq.Ops[i], &cache); err != nil {
							t.Fatalf("op %d: %v", i, err)
						}
						if err := cache.Verify(g); err != nil {
							t.Fatalf("after op %d (%v): %v", i, seq.Ops[i].Kind, err)
						}
					}
					before := g.NumRules()
					collectAndCheck(t, g, &cache, fmt.Sprintf("batch ending at op %d", i))
					collected += before - g.NumRules()
				}
				if collected == 0 {
					t.Fatal("no op stranded a rule: the stream does not exercise collection")
				}
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}
				got, err := g.Expand(0)
				if err != nil {
					t.Fatal(err)
				}
				if !sameTree(g.Syms, got, seq.Final.Syms, seq.Final.Root) {
					t.Fatal("document diverged from the stream's final document")
				}
			})
		}
	}
}

// sameTree compares two binary trees by label name.
func sameTree(sa *xmltree.SymbolTable, a *xmltree.Node, sb *xmltree.SymbolTable, b *xmltree.Node) bool {
	if sa.Name(a.Label.ID) != sb.Name(b.Label.ID) || a.Label.Kind != b.Label.Kind || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameTree(sa, a.Children[i], sb, b.Children[i]) {
			return false
		}
	}
	return true
}

// TestApplyAllLeavesNothingToCollect pins the collection of rules that
// unfolds strand: an isolation that inlines a rule's last call leaves
// the rule unreachable whatever the op, so after a batch of renames
// alone, of inserts alone, or of a mixed stream, a clone of the grammar
// must give GarbageCollect nothing to remove.
func TestApplyAllLeavesNothingToCollect(t *testing.T) {
	for _, c := range datasets.Corpora() {
		u := c.Generate(0.05, 20160516)
		doc := u.Binary()
		g, _ := treerepair.Compress(doc, treerepair.Options{})
		seq, err := workload.Updates(u, 60, 100, 5)
		if err != nil {
			t.Fatal(err)
		}
		inserts, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
		seq2, err := workload.Updates(u, 60, 50, 9)
		if err != nil {
			t.Fatal(err)
		}
		mixed, _ := treerepair.Compress(seq2.Seed, treerepair.Options{})
		for _, run := range []struct {
			name string
			g    *grammar.Grammar
			ops  []update.Op
		}{
			{"renames", g, workload.Renames(doc, 40, 7)},
			{"inserts", inserts, seq.Ops},
			{"mixed", mixed, seq2.Ops},
		} {
			if err := update.ApplyAll(run.g, run.ops); err != nil {
				t.Fatalf("%s/%s: %v", c.Short, run.name, err)
			}
			if n := run.g.Clone().GarbageCollect(); n != 0 {
				t.Errorf("%s/%s: GarbageCollect still removes %d rules after ApplyAll", c.Short, run.name, n)
			}
		}
	}
}

// FuzzApplyRefs decodes a grammar from the first argument and an op
// stream from the second, applies the ops through one cache and checks
// the reference counts against a recount after every op, and the
// collection against GarbageCollect every few ops and at the end.
func FuzzApplyRefs(f *testing.F) {
	for _, c := range datasets.Corpora() {
		u := c.Generate(0.005, 20160516)
		g, _ := treerepair.Compress(u.Binary(), treerepair.Options{})
		var b bytes.Buffer
		if err := grammar.Encode(&b, g); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes(), []byte{0, 9, 1, 3, 2, 7, 0, 1, 2, 20, 1, 0, 2, 2, 0, 30, 2, 5})
	}
	labels := []string{"a", "b", "new"}
	f.Fuzz(func(t *testing.T, gram, ops []byte) {
		if len(gram) > 1<<12 || len(ops) > 1<<9 {
			return
		}
		g, err := grammar.Decode(bytes.NewReader(gram))
		if err != nil {
			return
		}
		var cache update.Cache
		sizes, err := cache.Sizes(g)
		if err != nil {
			return
		}
		if err := cache.Verify(g); err != nil {
			t.Fatalf("fresh cache: %v", err)
		}
		if grammar.Saturated(sizes.Get(g.Start).Total) || g.NodeCount() > 1<<12 {
			return
		}
		for i := 0; len(ops) >= 2; i++ {
			total := cache.Peek().Get(g.Start).Total
			if grammar.Saturated(total) || total > 1<<16 {
				break
			}
			pos, n := binary.Uvarint(ops[1:])
			if n <= 0 {
				break
			}
			op := update.Op{Kind: update.Kind(ops[0] % 3), Pos: int64(pos % uint64(total))}
			ops = ops[1+n:]
			switch op.Kind {
			case update.Rename:
				op.Label = labels[i%len(labels)]
			case update.Insert:
				op.Frag = &xmltree.Unranked{Label: labels[i%len(labels)], Children: []*xmltree.Unranked{{Label: "c"}}}
			}
			// ⊥ renames and deletes fail after their isolation; the
			// counts must still be exact.
			_ = update.ApplyCached(g, op, &cache)
			if err := cache.Verify(g); err != nil {
				t.Fatalf("op %d %+v: %v", i, op, err)
			}
			if i%4 == 3 {
				collectAndCheck(t, g, &cache, fmt.Sprintf("after op %d", i))
			}
		}
		collectAndCheck(t, g, &cache, "end")
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
