package navigate

import (
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// degradedCorpus returns a corpus grammar degraded by the pinned update
// stream (post-update, pre-recompression) together with the warm cache
// that applied it — the cache owns the spine index the read-side view
// snapshots.
func degradedCorpus(t testing.TB, short string) (*grammar.Grammar, *update.Cache) {
	t.Helper()
	c, ok := datasets.ByShort(short)
	if !ok {
		t.Fatalf("unknown corpus %q", short)
	}
	u := c.Generate(0.02, 1)
	seq, err := workload.Updates(u, 120, 90, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
	cache := &update.Cache{}
	for _, op := range seq.Ops {
		if err := update.ApplyCached(g, op, cache); err != nil {
			t.Fatal(err)
		}
	}
	return g, cache
}

// TestSeekPreorderMatchesExpand is the read-descent differential over
// every corpus: on a degraded grammar, the indexed seek (size vectors +
// frozen spine view) and the naive seek (size vectors only) must land
// on the same terminal node — pointer-identical, since both cursors
// read the same grammar — and that node must match the expanded
// document's preorder ground truth at every position.
func TestSeekPreorderMatchesExpand(t *testing.T) {
	for _, short := range []string{"EW", "XM", "TB"} {
		t.Run(short, func(t *testing.T) {
			g, cache := degradedCorpus(t, short)
			sizes := cache.Peek()
			if sizes == nil {
				t.Fatal("cache cold after the update stream")
			}
			view := cache.SpineView()
			want, err := g.Expand(0)
			if err != nil {
				t.Fatal(err)
			}
			ci, err := NewCursor(g)
			if err != nil {
				t.Fatal(err)
			}
			ci.AttachIndex(sizes, view)
			cn, err := NewCursor(g)
			if err != nil {
				t.Fatal(err)
			}
			cn.AttachIndex(sizes, nil)
			total := sizes.Get(g.Start).Total
			for p := int64(0); p < total; p++ {
				if err := ci.SeekPreorder(p); err != nil {
					t.Fatalf("indexed seek(%d): %v", p, err)
				}
				if err := cn.SeekPreorder(p); err != nil {
					t.Fatalf("naive seek(%d): %v", p, err)
				}
				if ci.node != cn.node {
					t.Fatalf("p=%d: indexed and naive descents landed on different nodes", p)
				}
				if wn := want.PreorderIndex(int(p)); ci.node.Label != wn.Label {
					t.Fatalf("p=%d: label %v, want %v", p, ci.node.Label, wn.Label)
				}
			}
			if view != nil && ci.Stats().Jumps == 0 {
				t.Fatal("indexed cursor never used the view")
			}
			if cn.Stats().Jumps != 0 {
				t.Fatal("naive cursor took indexed jumps")
			}
		})
	}
}

// TestSeekPreorderExponential pins the tail-call arithmetic: on an
// exponentially compressing list grammar, every position must seek
// correctly through the Seg/argument descent without unfolding anything
// (the grammar stays frozen-sized).
func TestSeekPreorderExponential(t *testing.T) {
	root := xmltree.NewUnranked("r")
	for i := 0; i < 4096; i++ {
		root.Children = append(root.Children, xmltree.NewUnranked("a"))
	}
	g, _ := treerepair.Compress(root.Binary(), treerepair.Options{})
	sizes, err := g.ValSizes()
	if err != nil {
		t.Fatal(err)
	}
	before := g.Size()
	want, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCursor(g)
	if err != nil {
		t.Fatal(err)
	}
	c.AttachIndex(sizes, nil)
	total := sizes.Get(g.Start).Total
	for p := int64(0); p < total; p += 7 {
		if err := c.SeekPreorder(p); err != nil {
			t.Fatalf("seek(%d): %v", p, err)
		}
		if wn := want.PreorderIndex(int(p)); c.node.Label != wn.Label {
			t.Fatalf("p=%d: label %v, want %v", p, c.node.Label, wn.Label)
		}
	}
	if g.Size() != before {
		t.Fatal("read-side seek changed the grammar size")
	}
}

// TestSeekPreorderThenNavigate checks the cursor is fully usable after
// a seek: moves run off the rebuilt frame stack, and Parent walks back
// exactly to the seek point (the trail restarts there by contract).
func TestSeekPreorderThenNavigate(t *testing.T) {
	g, cache := degradedCorpus(t, "EW")
	sizes, view := cache.Peek(), cache.SpineView()
	c, err := NewCursor(g)
	if err != nil {
		t.Fatal(err)
	}
	c.AttachIndex(sizes, view)
	rng := rand.New(rand.NewSource(9))
	total := sizes.Get(g.Start).Total
	for trial := 0; trial < 200; trial++ {
		p := rng.Int63n(total)
		if err := c.SeekPreorder(p); err != nil {
			t.Fatalf("seek(%d): %v", p, err)
		}
		at := c.node
		if err := c.Parent(); err == nil {
			t.Fatal("Parent after a seek must stop at the seek point")
		}
		down := 0
		for !c.IsBottom() {
			if err := c.FirstChild(); err != nil {
				t.Fatalf("FirstChild after seek(%d): %v", p, err)
			}
			down++
		}
		for i := 0; i < down; i++ {
			if err := c.Parent(); err != nil {
				t.Fatalf("Parent after seek(%d): %v", p, err)
			}
		}
		if c.node != at {
			t.Fatalf("seek(%d): navigation did not return to the seek point", p)
		}
	}
}

// TestSeekPreorderErrors pins the error contract.
func TestSeekPreorderErrors(t *testing.T) {
	u := xmltree.NewUnranked("r", xmltree.NewUnranked("a"))
	g, _ := treerepair.Compress(u.Binary(), treerepair.Options{})
	c, err := NewCursor(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeekPreorder(0); err == nil {
		t.Fatal("seek without an attached size table must fail")
	}
	sizes, err := g.ValSizes()
	if err != nil {
		t.Fatal(err)
	}
	c.AttachIndex(sizes, nil)
	if err := c.SeekPreorder(-1); err == nil {
		t.Fatal("negative preorder must fail")
	}
	total := sizes.Get(g.Start).Total
	if err := c.SeekPreorder(total); err == nil {
		t.Fatal("out-of-range preorder must fail")
	}
	if err := c.SeekPreorder(0); err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 0 || c.Label() != "r" {
		t.Fatalf("seek(0) landed on %q depth %d", c.Label(), c.Depth())
	}
}
