// Tests for the isolation-frontier features of the Store: the
// indexed-vs-naive differential on the write path and on point
// queries.
package store

import (
	"bytes"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/workload"
)

// streamFixture is a pinned workload against a compressed corpus
// document.
func streamFixture(t *testing.T, short string, ops int, seed int64) (*grammar.Grammar, []update.Op) {
	t.Helper()
	c, ok := datasets.ByShort(short)
	if !ok {
		t.Fatalf("unknown corpus %q", short)
	}
	u := c.Generate(0.05, 1)
	seq, err := workload.Updates(u, ops, 90, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
	return g, seq.Ops
}

// TestFrontierVsNaiveByteIdentical replays the same streams through an
// indexed Store and a naive-descent Store and demands byte-identical
// Snapshot encodings at every batch boundary (and so byte-identical
// Query output — readers see the same grammar). The spine index must be
// a pure routing accelerator: same unfolds, same mutations, same
// grammar evolution.
func TestFrontierVsNaiveByteIdentical(t *testing.T) {
	for _, short := range []string{"EW", "XM", "TB"} {
		for _, seed := range []int64{5, 29} {
			g, ops := streamFixture(t, short, 200, seed)
			// Recompression disabled: the two engines must stay in
			// lockstep op for op (GrammarRePair is already pinned by the
			// parity harness).
			si := New(g.Clone(), Config{Ratio: -1})
			sn := New(g, Config{Ratio: -1})
			sn.cache.Naive = true
			for done := 0; done < len(ops); done += 25 {
				end := min(done+25, len(ops))
				if err := si.ApplyAll(ops[done:end]); err != nil {
					t.Fatalf("%s/%d indexed: %v", short, seed, err)
				}
				if err := sn.ApplyAll(ops[done:end]); err != nil {
					t.Fatalf("%s/%d naive: %v", short, seed, err)
				}
				var bi, bn bytes.Buffer
				if err := grammar.Encode(&bi, si.Snapshot()); err != nil {
					t.Fatal(err)
				}
				if err := grammar.Encode(&bn, sn.Snapshot()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bi.Bytes(), bn.Bytes()) {
					t.Fatalf("%s seed %d: snapshots diverge after %d ops", short, seed, end)
				}
			}
			ist, nst := si.Stats(), sn.Stats()
			if ist.IsolationJumps == 0 {
				t.Fatalf("%s seed %d: index never engaged: %+v", short, seed, ist)
			}
			if nst.IsolationJumps != 0 || nst.SpineNodes != 0 {
				t.Fatalf("%s seed %d: naive store used the index: %+v", short, seed, nst)
			}
		}
	}
}

// TestStorePointQueryDifferential routes point lookups through the
// published generation's spine view and demands agreement with the
// naive descent and the expanded document at every sampled position —
// the read-side counterpart of TestFrontierVsNaiveByteIdentical. Both
// paths read the same pinned generation, so any disagreement is an
// index bug, not a race.
func TestStorePointQueryDifferential(t *testing.T) {
	for _, short := range []string{"EW", "XM", "TB"} {
		t.Run(short, func(t *testing.T) {
			g, ops := streamFixture(t, short, 200, 5)
			st := New(g, Config{Ratio: -1})
			for done := 0; done < len(ops); done += 25 {
				if err := st.ApplyAll(ops[done:min(done+25, len(ops))]); err != nil {
					t.Fatal(err)
				}
			}
			snap := st.Snapshot()
			want, err := snap.Expand(0)
			if err != nil {
				t.Fatal(err)
			}
			total, err := st.TreeSize()
			if err != nil {
				t.Fatal(err)
			}
			for p := int64(0); p < total; p += 3 {
				li, err := st.PointQuery(p)
				if err != nil {
					t.Fatalf("PointQuery(%d): %v", p, err)
				}
				ln, err := st.PointQueryNaive(p)
				if err != nil {
					t.Fatalf("PointQueryNaive(%d): %v", p, err)
				}
				if li != ln {
					t.Fatalf("p=%d: indexed %q, naive %q", p, li, ln)
				}
				if w := snap.Syms.Name(want.PreorderIndex(int(p)).Label.ID); li != w {
					t.Fatalf("p=%d: %q, want expanded %q", p, li, w)
				}
			}
			// The store cursor comes out pre-indexed. EW's update stream
			// leaves long unfolded chains, so there the view must actually
			// engage (other corpora may legitimately publish no view when
			// no chain grew long enough).
			c, err := st.Cursor()
			if err != nil {
				t.Fatal(err)
			}
			for p := int64(0); p < total; p += 13 {
				if err := c.SeekPreorder(p); err != nil {
					t.Fatalf("cursor seek(%d): %v", p, err)
				}
			}
			if short == "EW" && c.Stats().Jumps == 0 {
				t.Fatal("indexed store cursor never used the spine view")
			}
		})
	}
}
