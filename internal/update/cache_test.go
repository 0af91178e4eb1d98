package update

import (
	"math/rand"
	"testing"

	"repro/internal/treerepair"
	"repro/internal/xmltree"
)

// TestCachedMatchesPerOp: applying a random sequence through the shared
// size-vector cache (ApplyAll's batched path) must produce exactly the
// same grammar-derived tree as applying each op with fresh sizes and
// per-delete garbage collection.
func TestCachedMatchesPerOp(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		u := randomUnranked(rng, 40+rng.Intn(80), []string{"a", "b", "c"})
		doc := u.Binary()
		gCached, _ := treerepair.Compress(doc, treerepair.Options{})
		gPerOp := gCached.Clone()
		ref := doc.Root.Copy()
		refSyms := doc.Syms.Clone()

		// Generate ops against the evolving reference tree so positions
		// stay valid for all three replicas.
		var ops []Op
		for i := 0; i < 30; i++ {
			op := randomOp(rng, ref)
			var err error
			ref, err = ApplyTree(refSyms, ref, op)
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, op)
		}

		var c Cache
		for i, op := range ops {
			if err := ApplyCached(gCached, op, &c); err != nil {
				t.Fatalf("trial %d cached op %d: %v", trial, i, err)
			}
			if err := Apply(gPerOp, op); err != nil {
				t.Fatalf("trial %d per-op %d: %v", trial, i, err)
			}
			// Mid-sequence cross-check: both replicas derive the reference
			// prefix state.
			if i == len(ops)/2 {
				a, _ := gCached.Expand(0)
				b, _ := gPerOp.Expand(0)
				if !xmltree.Equal(a, b) {
					t.Fatalf("trial %d: cached and per-op diverged mid-sequence", trial)
				}
			}
		}
		c.Collect(gCached)
		if c.Misses != 1 || c.Hits != int64(len(ops))-1 {
			t.Fatalf("trial %d: cache hits=%d misses=%d, want %d/1", trial, c.Hits, c.Misses, len(ops)-1)
		}

		got, err := gCached.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		perOp, err := gPerOp.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		// Grammar and reference tree intern new labels into separate
		// symbol tables, so compare by label name.
		if !sameLabeledTree(gCached.Syms, got, refSyms, ref) {
			t.Fatalf("trial %d: cached path diverged from tree ground truth", trial)
		}
		if !sameLabeledTree(gPerOp.Syms, perOp, refSyms, ref) {
			t.Fatalf("trial %d: per-op path diverged from tree ground truth", trial)
		}
		if err := gCached.Validate(); err != nil {
			t.Fatalf("trial %d: invalid grammar after batch: %v", trial, err)
		}
	}
}

// TestCacheRefreshStart: after an insert/delete the cached start vector
// must equal a freshly computed one.
func TestCacheRefreshStart(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := randomUnranked(rng, 60, []string{"a", "b"})
	doc := u.Binary()
	g, _ := treerepair.Compress(doc, treerepair.Options{})

	var c Cache
	ref := doc.Root.Copy()
	refSyms := doc.Syms.Clone()
	for i := 0; i < 20; i++ {
		op := randomOp(rng, ref)
		var err error
		ref, err = ApplyTree(refSyms, ref, op)
		if err != nil {
			t.Fatal(err)
		}
		if err := ApplyCached(g, op, &c); err != nil {
			t.Fatal(err)
		}
		fresh, err := g.ValSizes()
		if err != nil {
			t.Fatal(err)
		}
		cached, err := c.Sizes(g)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Get(g.Start).Total != fresh.Get(g.Start).Total {
			t.Fatalf("op %d: cached start total %d, fresh %d",
				i, cached.Get(g.Start).Total, fresh.Get(g.Start).Total)
		}
	}
}
