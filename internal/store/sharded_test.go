package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// docFixture is one document of a multi-document workload: its seed
// grammar, the op stream replaying it to the corpus, and the expected
// final document.
type docFixture struct {
	id    string
	g0    *grammar.Grammar
	ops   []update.Op
	final *xmltree.Document
}

// shardedFixtures builds n disjoint per-document workloads over the XM
// corpus (distinct generation and workload seeds per document).
func shardedFixtures(t *testing.T, n, opsPerDoc int) []*docFixture {
	t.Helper()
	c, ok := datasets.ByShort("XM")
	if !ok {
		t.Fatal("no XM corpus")
	}
	docs := make([]*docFixture, n)
	for d := 0; d < n; d++ {
		u := c.Generate(0.02, int64(5+d))
		seq, err := workload.Updates(u, opsPerDoc, 90, int64(100+d))
		if err != nil {
			t.Fatal(err)
		}
		g0, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
		docs[d] = &docFixture{
			id:    fmt.Sprintf("doc-%02d", d),
			g0:    g0,
			ops:   seq.Ops,
			final: seq.Final,
		}
	}
	return docs
}

// encodeBytes renders a grammar in the persistent binary format — the
// byte-identity yardstick of the differential test.
func encodeBytes(t *testing.T, g *grammar.Grammar) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := grammar.Encode(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// replaySequential replays one document's ops through a fresh
// single-document Store with the same config and batch size — the
// ground truth the concurrent run must be byte-identical to.
func replaySequential(t *testing.T, fx *docFixture, cfg Config, batch int) []byte {
	t.Helper()
	st := New(fx.g0.Clone(), cfg)
	for done := 0; done < len(fx.ops); done += batch {
		end := min(done+batch, len(fx.ops))
		if err := st.ApplyAll(fx.ops[done:end]); err != nil {
			t.Fatalf("%s: sequential batch at %d: %v", fx.id, done, err)
		}
	}
	return encodeBytes(t, st.Snapshot())
}

// TestShardedDifferentialConcurrency is the differential concurrency
// test of the sharded layer: M writer goroutines apply disjoint
// per-document workloads through a ShardedStore while readers stream
// Query/CountLabel, and every final snapshot must be byte-identical to
// a sequential single-Store replay of the same document. Recompression
// is synchronous here so the per-document grammar evolution is a pure
// function of its op stream — any byte difference is cross-document
// interference. Run under -race this also pins the locking discipline
// of the shard write locks.
func TestShardedDifferentialConcurrency(t *testing.T) {
	const (
		nDocs  = 6
		nOps   = 120
		batch  = 20
		shards = 4
	)
	cfg := Config{Ratio: 1.3, MinSize: 16}
	docs := shardedFixtures(t, nDocs, nOps)

	want := make(map[string][]byte, nDocs)
	for _, fx := range docs {
		want[fx.id] = replaySequential(t, fx, cfg, batch)
	}

	ss := NewSharded(shards, cfg)
	defer ss.Close()
	for _, fx := range docs {
		if _, err := ss.Open(fx.id, fx.g0.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if ss.NumDocs() != nDocs || ss.NumShards() != shards {
		t.Fatalf("store has %d docs / %d shards", ss.NumDocs(), ss.NumShards())
	}

	// Readers stream aggregate queries against every document while the
	// writers run; their results are not asserted (they see intermediate
	// states), their memory accesses are what -race checks.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, fx := range docs {
					switch r {
					case 0:
						if _, err := ss.CountLabel(fx.id, "item"); err != nil {
							t.Error(err)
							return
						}
					case 1:
						if err := ss.Query(fx.id, func(g *grammar.Grammar) error {
							_ = g.Size()
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					default:
						st, ok := ss.Get(fx.id)
						if !ok {
							t.Errorf("%s vanished", fx.id)
							return
						}
						_ = st.Stats()
						_, _ = st.TreeSize()
					}
				}
			}
		}(r)
	}

	var writers sync.WaitGroup
	for _, fx := range docs {
		writers.Add(1)
		go func(fx *docFixture) {
			defer writers.Done()
			for done := 0; done < len(fx.ops); done += batch {
				end := min(done+batch, len(fx.ops))
				if err := ss.ApplyAll(fx.id, fx.ops[done:end]); err != nil {
					t.Errorf("%s: batch at %d: %v", fx.id, done, err)
					return
				}
			}
		}(fx)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	ss.Quiesce()

	for _, fx := range docs {
		snap, err := ss.Snapshot(fx.id)
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("%s: invalid final grammar: %v", fx.id, err)
		}
		if got := encodeBytes(t, snap); !bytes.Equal(got, want[fx.id]) {
			t.Fatalf("%s: concurrent snapshot differs from sequential replay (%d vs %d bytes)",
				fx.id, len(got), len(want[fx.id]))
		}
		// And both must be the workload's final document.
		if !sameLabeledTree(snap.Syms, mustTree(t, snap), fx.final.Syms, fx.final.Root) {
			t.Fatalf("%s: did not converge to the corpus document", fx.id)
		}
	}

	stats := ss.Stats()
	if stats.Ops != int64(nDocs*nOps) {
		t.Fatalf("aggregate ops %d, want %d", stats.Ops, nDocs*nOps)
	}
	if stats.Docs != nDocs || stats.Shards != shards {
		t.Fatalf("aggregate stats %d docs / %d shards", stats.Docs, stats.Shards)
	}
}

// TestShardedAsyncConvergence runs the same disjoint workloads with
// asynchronous recompression enabled: swaps race the writers for real,
// so grammar bytes are timing-dependent, but after Quiesce every
// document must still derive exactly its corpus document — the
// "discard or replay, never a lost update" property end to end.
func TestShardedAsyncConvergence(t *testing.T) {
	const (
		nDocs = 4
		nOps  = 100
		batch = 10
	)
	cfg := Config{Ratio: 1.2, MinSize: 16, Async: true}
	docs := shardedFixtures(t, nDocs, nOps)

	ss := NewSharded(2, cfg)
	defer ss.Close()
	for _, fx := range docs {
		if _, err := ss.Open(fx.id, fx.g0.Clone()); err != nil {
			t.Fatal(err)
		}
	}

	var writers sync.WaitGroup
	for _, fx := range docs {
		writers.Add(1)
		go func(fx *docFixture) {
			defer writers.Done()
			for done := 0; done < len(fx.ops); done += batch {
				end := min(done+batch, len(fx.ops))
				if err := ss.ApplyAll(fx.id, fx.ops[done:end]); err != nil {
					t.Errorf("%s: batch at %d: %v", fx.id, done, err)
					return
				}
			}
		}(fx)
	}
	writers.Wait()
	ss.Quiesce()

	swapped, discarded := int64(0), int64(0)
	for _, fx := range docs {
		st, ok := ss.Get(fx.id)
		if !ok {
			t.Fatalf("%s vanished", fx.id)
		}
		ds := st.Stats()
		swapped += ds.AsyncRecompressions
		discarded += ds.DiscardedRecompressions
		snap := st.Snapshot()
		if err := snap.Validate(); err != nil {
			t.Fatalf("%s: invalid final grammar: %v", fx.id, err)
		}
		if !sameLabeledTree(snap.Syms, mustTree(t, snap), fx.final.Syms, fx.final.Root) {
			t.Fatalf("%s: lost an update across %d swaps / %d discards",
				fx.id, ds.AsyncRecompressions, ds.DiscardedRecompressions)
		}
	}
	t.Logf("async runs: %d swapped, %d discarded", swapped, discarded)
}

// TestShardedLifecycle covers the registry surface: duplicate opens,
// unknown documents, Drop, and writes after Close.
func TestShardedLifecycle(t *testing.T) {
	ss := NewSharded(2, Config{Ratio: -1})
	u := xmltree.NewUnranked("r", xmltree.NewUnranked("a"))
	g, _ := treerepair.Compress(u.Binary(), treerepair.Options{})
	if _, err := ss.Open("d", g); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Open("d", g.Clone()); err == nil {
		t.Fatal("duplicate open must fail")
	}
	if err := ss.Apply("nope", update.Op{Kind: update.Rename, Pos: 0, Label: "x"}); err == nil {
		t.Fatal("apply to unknown doc must fail")
	}
	if _, err := ss.Snapshot("nope"); err == nil {
		t.Fatal("snapshot of unknown doc must fail")
	}
	if err := ss.Apply("d", update.Op{Kind: update.Rename, Pos: 0, Label: "x"}); err != nil {
		t.Fatal(err)
	}
	if got := ss.Docs(); len(got) != 1 || got[0] != "d" {
		t.Fatalf("Docs() = %v", got)
	}
	if !ss.Drop("d") || ss.Drop("d") {
		t.Fatal("Drop must report presence exactly once")
	}
	ss.Close()
	ss.Close() // idempotent
	if _, err := ss.Open("late", g.Clone()); err == nil {
		t.Fatal("open after close must fail")
	}
}

// idInShard returns the first "<prefix>-<n>" document ID that s hashes
// to shard k.
func idInShard(s *Sharded, k int, prefix string) string {
	for n := 0; ; n++ {
		if id := fmt.Sprintf("%s-%d", prefix, n); s.shardFor(id) == s.shards[k] {
			return id
		}
	}
}

// TestShardWriteSerialization pins the write-concurrency contract of
// the shard: while one document's batch is held inside its apply, a
// batch for a document in another shard completes, and a batch for
// another document of the held document's shard does not apply until
// the held batch is released. Every batch recompresses synchronously,
// so the held batch parks in its Store's compress hook.
func TestShardWriteSerialization(t *testing.T) {
	docs := shardedFixtures(t, 3, 10)
	ss := NewSharded(2, Config{Ratio: 0.01, MinSize: 1})
	defer ss.Close()
	ids := []string{idInShard(ss, 0, "held"), idInShard(ss, 0, "same"), idInShard(ss, 1, "other")}
	sts := make([]*Store, len(ids))
	for i, id := range ids {
		st, err := ss.Open(id, docs[i].g0.Clone())
		if err != nil {
			t.Fatal(err)
		}
		sts[i] = st
	}
	apply := func(i int) <-chan error {
		done := make(chan error, 1)
		go func() { done <- ss.ApplyAll(ids[i], docs[i].ops[:5]) }()
		return done
	}

	ga := newGate(1)
	ga.install(sts[0])
	var released, early atomic.Bool
	// Deferred after ss.Close, so it runs first: a failing test must not
	// leave Close waiting on the parked batch.
	release := sync.OnceFunc(func() {
		released.Store(true)
		close(ga.release)
	})
	defer release()
	inner := sts[1].compress
	sts[1].compress = func(g *grammar.Grammar, o core.Options) (*grammar.Grammar, *core.Stats) {
		if !released.Load() {
			early.Store(true)
		}
		return inner(g, o)
	}

	heldDone := apply(0)
	<-ga.entered

	select {
	case err := <-apply(2):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a batch in another shard waited on the held batch")
	}

	// Give a broken serialization a window to show itself; on a correct
	// one the same-shard batch is parked on the shard lock throughout,
	// and the hook above records any apply that starts before release.
	sameDone := apply(1)
	select {
	case err := <-sameDone:
		t.Fatalf("same-shard batch completed while the held batch was parked (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-heldDone; err != nil {
		t.Fatal(err)
	}
	if err := <-sameDone; err != nil {
		t.Fatal(err)
	}
	if early.Load() {
		t.Fatal("same-shard batch applied while the held batch was parked")
	}
}
