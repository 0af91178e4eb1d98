package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datasets"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/wal"
	"repro/internal/workload"
)

// checkRefs holds the write lock and checks the batch-boundary state of
// the Store's counts: they equal a recount of the working grammar, no
// rule is left pending collection, a clone of the grammar gives
// GarbageCollect nothing to remove, and Stats().Size is |G| by a walk.
// It pins no generation, so it does not force a copy-on-write clone.
func checkRefs(t *testing.T, st *Store, when string) {
	t.Helper()
	st.mu.Lock()
	err := st.cache.Verify(st.g)
	stranded := st.cache.Stranded()
	left := st.g.Clone().GarbageCollect()
	st.mu.Unlock()
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if stranded || left != 0 {
		t.Fatalf("%s: %d rules left to collect (pending %v)", when, left, stranded)
	}
	// Stats takes the lock itself, so an asynchronous swap may land
	// between the walk and the call; compare only readings of one
	// grammar, and take them again if it moved.
	for {
		st.mu.Lock()
		g, walked := st.g, st.g.Size()
		st.mu.Unlock()
		got := st.Stats().Size
		st.mu.Lock()
		moved := st.g != g
		st.mu.Unlock()
		if moved {
			continue
		}
		if got != walked {
			t.Fatalf("%s: Stats().Size %d, walk %d", when, got, walked)
		}
		return
	}
}

// applyBatches applies ops in seeded random batches of 1–12, calling
// after once per batch.
func applyBatches(t *testing.T, st *Store, ops []update.Op, seed int64, after func(end int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for off := 0; off < len(ops); {
		end := min(off+1+rng.Intn(12), len(ops))
		if err := st.ApplyAll(ops[off:end]); err != nil {
			t.Fatalf("ops %d..%d: %v", off, end, err)
		}
		after(end)
		off = end
	}
}

// TestStoreRefsMatchRecount is the Store-level differential of the
// reference counts: across synchronous and asynchronous recompression
// (tail replay included), copy-on-write clones forced by pinned
// generations, and a durable reopen, the counts must equal a recount
// and every batch must leave nothing to collect.
func TestStoreRefsMatchRecount(t *testing.T) {
	t.Run("recompress", func(t *testing.T) {
		g, ops := streamFixture(t, "XM", 300, 5)
		st := New(g, Config{Ratio: 1.2, MinSize: 16})
		applyBatches(t, st, ops, 2, func(end int) { checkRefs(t, st, fmt.Sprintf("after %d ops", end)) })
		if st.Stats().Recompressions == 0 {
			t.Fatal("no recompression")
		}
	})
	t.Run("async-tail", func(t *testing.T) {
		g, ops := streamFixture(t, "TB", 400, 7)
		st := New(g, Config{Async: true, Ratio: 1.1, MinSize: 16})
		ga := newGate(1)
		ga.install(st)
		released := false
		applyBatches(t, st, ops, 3, func(end int) {
			checkRefs(t, st, fmt.Sprintf("after %d ops", end))
			st.mu.RLock()
			racing := len(st.tail)
			st.mu.RUnlock()
			// Let a few batches race the held run first.
			if !released && racing >= 6 {
				close(ga.release)
				st.Wait()
				released = true
				checkRefs(t, st, fmt.Sprintf("after the swap at %d ops", end))
			}
		})
		st.Wait()
		checkRefs(t, st, "end")
		if s := st.Stats(); s.ReplayedTailOps == 0 || s.AsyncRecompressions == 0 {
			t.Fatalf("replayed %d tail ops in %d async swaps", s.ReplayedTailOps, s.AsyncRecompressions)
		}
	})
	t.Run("pinned-clone", func(t *testing.T) {
		g, ops := streamFixture(t, "EW", 300, 9)
		st := New(g, Config{Ratio: -1})
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			// A concurrent reader pins whatever generation is current.
			defer wg.Done()
			for !stop.Load() {
				if _, err := st.PointQuery(0); err != nil {
					t.Error(err)
					return
				}
				_ = st.Size()
			}
		}()
		misses := st.Stats().SizeCacheMisses
		applyBatches(t, st, ops, 4, func(end int) {
			st.Snapshot() // pin: the next batch must move to a clone
			checkRefs(t, st, fmt.Sprintf("after %d ops", end))
		})
		stop.Store(true)
		wg.Wait()
		// The counts crossed every clone: no cold rebuild happened.
		if got := st.Stats().SizeCacheMisses; got != misses {
			t.Fatalf("clones rebuilt the cache (%d -> %d misses)", misses, got)
		}
	})
	t.Run("durable-reopen", func(t *testing.T) {
		g0, batches := durWorkload(t, "XM", 160, 8)
		cfg := durCfg(t.TempDir(), 32, wal.FsyncBatch, nil)
		st, err := CreateDurable("doc", g0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		half := len(batches) / 2
		for i, b := range batches[:half] {
			if err := st.ApplyAll(b); err != nil {
				t.Fatal(err)
			}
			checkRefs(t, st, fmt.Sprintf("batch %d", i))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDurable("doc", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		checkRefs(t, re, "reopen")
		for i, b := range batches[half:] {
			if err := re.ApplyAll(b); err != nil {
				t.Fatal(err)
			}
			checkRefs(t, re, fmt.Sprintf("batch %d after reopen", half+i))
		}
	})
}

// TestStoreBatchesLeaveNothingToCollect is the Store side of
// update.TestApplyAllLeavesNothingToCollect: renames strand rules too
// (an unfold inlines a rule's last call), and the batch that stranded
// them must collect them, so the published grammar never carries one.
func TestStoreBatchesLeaveNothingToCollect(t *testing.T) {
	for _, c := range datasets.Corpora() {
		doc := c.Generate(0.05, 20160516).Binary()
		g, _ := treerepair.Compress(doc, treerepair.Options{})
		st := New(g, Config{Ratio: -1})
		ops := workload.Renames(doc, 40, 7)
		for off := 0; off < len(ops); off += 10 {
			if err := st.ApplyAll(ops[off : off+10]); err != nil {
				t.Fatal(err)
			}
			if n := st.Snapshot().Clone().GarbageCollect(); n != 0 {
				t.Errorf("%s: after %d renames GarbageCollect still removes %d rules", c.Short, off+10, n)
			}
		}
	}
}
