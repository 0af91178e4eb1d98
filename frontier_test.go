// Differential pinning of the persistent isolation frontier (PR 5):
// the spine-indexed descent must evolve the grammar byte-identically
// to the naive descent across every corpus shape, op mix, and seed —
// the update-layer analogue of TestCompressionParity.
package sltgrammar_test

import (
	"bytes"
	"testing"

	sltgrammar "repro"
	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// TestFrontierDifferentialStreams replays inverse-seeded workloads over
// all six corpora through an indexed and a naive update.Cache in
// lockstep and byte-compares the encoded grammars at the end (and so
// every Query/Snapshot either engine could serve).
func TestFrontierDifferentialStreams(t *testing.T) {
	for _, short := range []string{"EW", "XM", "ET", "TB", "MD", "NC"} {
		for _, seed := range []int64{11, 12} {
			c, ok := datasets.ByShort(short)
			if !ok {
				t.Fatalf("unknown corpus %q", short)
			}
			u := c.Generate(0.05, 1)
			seq, err := workload.Updates(u, 250, 90, seed)
			if err != nil {
				t.Fatal(err)
			}
			g0, _ := sltgrammar.Compress(&sltgrammar.Document{Syms: seq.Seed.Syms, Root: seq.Seed.Root})
			gi, gn := g0.Clone(), g0.Clone()
			var ci, cn update.Cache
			cn.Naive = true
			for i := range seq.Ops {
				if err := update.ApplyCached(gi, seq.Ops[i], &ci); err != nil {
					t.Fatalf("%s/%d indexed op %d: %v", short, seed, i, err)
				}
				if err := update.ApplyCached(gn, seq.Ops[i], &cn); err != nil {
					t.Fatalf("%s/%d naive op %d: %v", short, seed, i, err)
				}
			}
			gi.GarbageCollect()
			gn.GarbageCollect()
			var bi, bn bytes.Buffer
			if err := grammar.Encode(&bi, gi); err != nil {
				t.Fatal(err)
			}
			if err := grammar.Encode(&bn, gn); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bi.Bytes(), bn.Bytes()) {
				t.Fatalf("%s seed %d: indexed and naive grammars diverge", short, seed)
			}
			if fs := ci.FrontierStats(); fs.Jumps == 0 {
				t.Fatalf("%s seed %d: index never engaged: %+v", short, seed, fs)
			}
		}
	}
}

// TestFrontierStreamMatchesTreeGroundTruth replays an EW-style stream
// through the indexed engine and the plain-tree reference semantics and
// compares the final documents — independent of the naive engine, so a
// bug shared by both descent modes cannot hide.
func TestFrontierStreamMatchesTreeGroundTruth(t *testing.T) {
	c, _ := datasets.ByShort("EW")
	u := c.Generate(0.05, 1)
	seq, err := workload.Updates(u, 300, 90, 77)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := sltgrammar.Compress(&sltgrammar.Document{Syms: seq.Seed.Syms, Root: seq.Seed.Root})
	var cache update.Cache
	ref := seq.Seed.Root.Copy()
	for i := range seq.Ops {
		if err := update.ApplyCached(g, seq.Ops[i], &cache); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		ref, err = update.ApplyTree(seq.Seed.Syms, ref, seq.Ops[i])
		if err != nil {
			t.Fatalf("ref op %d: %v", i, err)
		}
	}
	g.GarbageCollect()
	got, err := g.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, ref) {
		t.Fatal("indexed stream diverged from the plain-tree ground truth")
	}
}
