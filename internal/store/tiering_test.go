package store

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// TestReadPathZeroAlloc pins the "pointer grab" claim of the
// generational read path: on a quiesced store Snapshot and Epoch
// allocate nothing, and opening a cursor costs a bounded handful of
// allocations (the cursor + its descent frames), independent of |G|.
func TestReadPathZeroAlloc(t *testing.T) {
	fx := newAsyncFixture(t, Config{Ratio: -1})
	if allocs := testing.AllocsPerRun(100, func() {
		_ = fx.st.Snapshot()
		_ = fx.st.Epoch()
	}); allocs != 0 {
		t.Fatalf("Snapshot+Epoch allocated %.1f times per read", allocs)
	}
	// Aggregate reads ride the generation caches: alloc-free once warm.
	if allocs := testing.AllocsPerRun(100, func() {
		_ = fx.st.Size()
		if _, err := fx.st.TreeSize(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Size+TreeSize allocated %.1f times per read", allocs)
	}
	cursorAllocs := testing.AllocsPerRun(100, func() {
		if _, err := fx.st.Cursor(); err != nil {
			t.Fatal(err)
		}
	})
	// O(1), not zero: the cursor struct and its stacks. The bound is
	// generous; the point is that it no longer scales with the grammar
	// (the old Snapshot deep copy was O(|G|) allocations).
	if cursorAllocs > 16 {
		t.Fatalf("cursor open allocated %.1f times, want O(1)", cursorAllocs)
	}
}

// TestPinnedGenerationByteStable is the generation-protocol race
// battery: readers pin snapshots while a writer streams updates with
// asynchronous recompression swapping generations underneath, and every
// pinned snapshot must re-encode byte-identically later — a published
// generation is immutable forever, whatever the writer does next.
func TestPinnedGenerationByteStable(t *testing.T) {
	docs := shardedFixtures(t, 1, 160)
	fx := docs[0]
	st := New(fx.g0.Clone(), Config{Ratio: 1.2, MinSize: 16, Async: true})

	type pinned struct {
		g   *grammar.Grammar
		enc []byte
	}
	var (
		mu   sync.Mutex
		pins []pinned
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := st.Snapshot()
				var buf bytes.Buffer
				if err := grammar.Encode(&buf, g); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				pins = append(pins, pinned{g, buf.Bytes()})
				mu.Unlock()
				// Aggregate reads on the same pinned generation must be
				// coherent with it, not with the advancing live document.
				if _, err := st.CountLabel("fresh0"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	const batch = 16
	for off := 0; off < len(fx.ops); off += batch {
		if err := st.ApplyAll(fx.ops[off:min(off+batch, len(fx.ops))]); err != nil {
			t.Fatal(err)
		}
		// Pin one snapshot per batch from the writer's own goroutine so
		// the battery never degenerates to zero pins on a fast machine;
		// the background readers add the racy interleavings.
		g := st.Snapshot()
		var buf bytes.Buffer
		if err := grammar.Encode(&buf, g); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		pins = append(pins, pinned{g, buf.Bytes()})
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	st.Wait()
	if len(pins) == 0 {
		t.Fatal("readers pinned nothing")
	}
	for i, p := range pins {
		var buf bytes.Buffer
		if err := grammar.Encode(&buf, p.g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), p.enc) {
			t.Fatalf("pinned snapshot %d of %d mutated across swaps", i, len(pins))
		}
		if err := p.g.Validate(); err != nil {
			t.Fatalf("pinned snapshot %d invalid: %v", i, err)
		}
	}
}

// tieredBudget computes a memory budget that forces eviction: a quarter
// of the unbounded fleet's resident total.
func tieredBudget(t *testing.T, docs []*docFixture, cfg Config) int64 {
	t.Helper()
	var total int64
	for _, fx := range docs {
		st := New(fx.g0.Clone(), cfg)
		total += st.ResidentBytes()
	}
	return total / 4
}

// runZipfFleet opens every fixture document in ss and applies the zipf
// schedule sequentially, interleaving reads on the drawn document so
// the read path exercises rehydration too.
func runZipfFleet(t *testing.T, ss *Sharded, docs []*docFixture, sched []workload.FleetBatch) {
	t.Helper()
	for _, fx := range docs {
		if _, err := ss.Open(fx.id, fx.g0.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range sched {
		if err := ss.ApplyAll(docs[b.Doc].id, b.Ops); err != nil {
			t.Fatalf("zipf batch %d (doc %s): %v", i, docs[b.Doc].id, err)
		}
		if i%7 == 0 {
			if _, err := ss.CountLabel(docs[b.Doc].id, "fresh0"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fleetBytes snapshots and encodes every document of a fleet.
func fleetBytes(t *testing.T, ss *Sharded, docs []*docFixture) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(docs))
	for _, fx := range docs {
		g, err := ss.Snapshot(fx.id)
		if err != nil {
			t.Fatalf("%s: %v", fx.id, err)
		}
		out[fx.id] = encodeBytes(t, g)
	}
	return out
}

// TestTieredZipfDifferential is the eviction differential: a
// budget-bounded in-memory fleet serving a zipf-skewed workload must
// end byte-identical, document for document, to an unbounded fleet
// serving the same schedule — evictions and rehydrations must be
// invisible in the final state. Recompression is disabled so
// byte-identity (not just tree equality) is the bar.
func TestTieredZipfDifferential(t *testing.T) {
	const nDocs, nOps = 12, 60
	cfg := Config{Ratio: -1}
	docs := shardedFixtures(t, nDocs, nOps)
	sched := workload.ZipfFleet(zipfStreams(docs), 10, 1.4, 99)

	free := NewSharded(3, cfg)
	defer free.Close()
	runZipfFleet(t, free, docs, sched)
	want := fleetBytes(t, free, docs)

	tcfg := cfg
	tcfg.MemoryBudget = tieredBudget(t, docs, cfg)
	tiered := NewSharded(3, tcfg)
	defer tiered.Close()
	runZipfFleet(t, tiered, docs, sched)

	st := tiered.Stats()
	if st.Evictions == 0 || st.Hydrations == 0 {
		t.Fatalf("budget %d forced no tiering: evictions=%d hydrations=%d residentBytes=%d",
			tcfg.MemoryBudget, st.Evictions, st.Hydrations, st.ResidentBytes)
	}
	if st.Resident+st.Evicted != st.Docs {
		t.Fatalf("residency split broken: resident=%d evicted=%d docs=%d",
			st.Resident, st.Evicted, st.Docs)
	}
	if free.Stats().Evictions != 0 {
		t.Fatal("unbounded fleet evicted")
	}

	got := fleetBytes(t, tiered, docs) // rehydrates evicted docs on read
	for _, fx := range docs {
		if !bytes.Equal(got[fx.id], want[fx.id]) {
			t.Fatalf("%s: tiered fleet diverged from unbounded fleet", fx.id)
		}
	}
	// Stats after the reads, which rehydrated the evicted documents.
	requireSameOpCounts(t, tiered.Stats(), free.Stats())
}

// zipfStreams returns each fixture's update stream followed by ten
// renames of its final tree, so a fleet schedule drives every op kind.
// Renames address the tree they rename and move no positions, so the
// final tree's positions stay valid after the stream.
func zipfStreams(docs []*docFixture) [][]update.Op {
	streams := make([][]update.Op, len(docs))
	for i, fx := range docs {
		ops := append([]update.Op(nil), fx.ops...)
		streams[i] = append(ops, workload.Renames(fx.final, 10, int64(i))...)
	}
	return streams
}

// requireSameOpCounts checks that a tiered fleet's op and batch totals
// equal those of the unbounded fleet that applied the same schedule:
// counts must survive eviction (the retired accumulator) and must not
// grow when rehydration replays a WAL tail.
func requireSameOpCounts(t *testing.T, tiered, free ShardedStats) {
	t.Helper()
	if free.Renames == 0 || free.Inserts == 0 || free.Deletes == 0 {
		t.Fatalf("schedule drove renames=%d inserts=%d deletes=%d: the comparison is vacuous",
			free.Renames, free.Inserts, free.Deletes)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Ops", tiered.Ops, free.Ops},
		{"Renames", tiered.Renames, free.Renames},
		{"Inserts", tiered.Inserts, free.Inserts},
		{"Deletes", tiered.Deletes, free.Deletes},
		{"Batches", tiered.Batches, free.Batches},
	} {
		if c.got != c.want {
			t.Fatalf("tiered fleet counted %s %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestTieredReadOnlyZipfEviction extends the tiering differential with
// a read-only phase: after the write schedule drains, a zipf-skewed
// stream of pure reads must keep the tier moving — rehydrating the
// documents it draws and, through the read path's rate-limited budget
// probe, evicting cold ones to pay for them — while every read stays
// byte-identical to the unbounded fleet's final state.
func TestTieredReadOnlyZipfEviction(t *testing.T) {
	const nDocs, nOps = 12, 60
	cfg := Config{Ratio: -1}
	docs := shardedFixtures(t, nDocs, nOps)
	var streams [][]update.Op
	for _, fx := range docs {
		streams = append(streams, fx.ops)
	}
	sched := workload.ZipfFleet(streams, 10, 1.4, 99)

	free := NewSharded(3, cfg)
	defer free.Close()
	runZipfFleet(t, free, docs, sched)
	want := fleetBytes(t, free, docs)

	tcfg := cfg
	tcfg.MemoryBudget = tieredBudget(t, docs, cfg)
	tiered := NewSharded(3, tcfg)
	defer tiered.Close()
	runZipfFleet(t, tiered, docs, sched)
	wrote := tiered.Stats()

	// Read-only zipf phase: reuse the fleet scheduler for the document
	// draw (the op batches are ignored — nothing is applied).
	for i, b := range workload.ZipfFleet(streams, 1, 1.4, 7) {
		fx := docs[b.Doc]
		g, err := tiered.Snapshot(fx.id)
		if err != nil {
			t.Fatalf("read %d (doc %s): %v", i, fx.id, err)
		}
		if !bytes.Equal(encodeBytes(t, g), want[fx.id]) {
			t.Fatalf("%s: read-only phase diverged from unbounded fleet", fx.id)
		}
		if _, err := tiered.CountLabel(fx.id, "fresh0"); err != nil {
			t.Fatal(err)
		}
	}
	st := tiered.Stats()
	if st.Hydrations <= wrote.Hydrations {
		t.Fatalf("read-only zipf phase never rehydrated: before %d, after %d",
			wrote.Hydrations, st.Hydrations)
	}
	if st.Evictions <= wrote.Evictions {
		t.Fatalf("read-only zipf phase never evicted (read-driven budget probe idle): before %d, after %d",
			wrote.Evictions, st.Evictions)
	}
	if st.Ops != wrote.Ops {
		t.Fatalf("read-only phase applied ops: %d, want %d", st.Ops, wrote.Ops)
	}
}

// TestTieredZipfDifferentialDurable runs the same differential on
// durable fleets: under a budget, cold documents are dropped entirely
// (no frozen bytes) and rehydrate through WAL recovery — snapshot +
// tail replay — and must still end byte-identical to the unbounded
// durable fleet.
func TestTieredZipfDifferentialDurable(t *testing.T) {
	const nDocs, nOps = 8, 60
	docs := shardedFixtures(t, nDocs, nOps)
	sched := workload.ZipfFleet(zipfStreams(docs), 10, 1.4, 99)

	mk := func(dir string, budget int64) Config {
		return Config{
			Ratio:        -1,
			MemoryBudget: budget,
			Durability: &Durability{
				Dir:              dir,
				Fsync:            wal.FsyncOff, // tier correctness, not crash safety
				SnapshotEveryOps: 32,           // roll snapshots: recovery replays short tails
			},
		}
	}

	free, err := OpenSharded(3, mk(t.TempDir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer free.Close()
	runZipfFleet(t, free, docs, sched)
	want := fleetBytes(t, free, docs)

	budget := tieredBudget(t, docs, Config{Ratio: -1})
	tiered, err := OpenSharded(3, mk(t.TempDir(), budget))
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	runZipfFleet(t, tiered, docs, sched)

	st := tiered.Stats()
	if st.Evictions == 0 || st.Hydrations == 0 {
		t.Fatalf("durable tier idle: evictions=%d hydrations=%d", st.Evictions, st.Hydrations)
	}
	got := fleetBytes(t, tiered, docs)
	for _, fx := range docs {
		if !bytes.Equal(got[fx.id], want[fx.id]) {
			t.Fatalf("%s: tiered durable fleet diverged", fx.id)
		}
	}
	// Stats after the reads, which rehydrated the evicted documents
	// through WAL replay.
	st = tiered.Stats()
	if st.RecoveredOps == 0 {
		t.Fatal("no rehydration replayed a WAL tail: the count check is vacuous")
	}
	requireSameOpCounts(t, st, free.Stats())
}

// TestTieredConcurrentConvergence is the tiering race battery: writers
// stream per-document workloads concurrently while readers hammer
// Get/Snapshot/CountLabel and evictions run underneath (recompression
// async, tiny budget). Every document must converge to its sequential
// ground truth — compared as trees, since recompression timing is
// nondeterministic here.
func TestTieredConcurrentConvergence(t *testing.T) {
	const nDocs, nOps, batch = 6, 100, 20
	cfg := Config{Ratio: 1.3, MinSize: 16, Async: true}
	docs := shardedFixtures(t, nDocs, nOps)

	tcfg := cfg
	tcfg.MemoryBudget = tieredBudget(t, docs, cfg)
	ss := NewSharded(3, tcfg)
	defer ss.Close()
	for _, fx := range docs {
		if _, err := ss.Open(fx.id, fx.g0.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fx := docs[(i+r)%len(docs)]
				st, ok := ss.Get(fx.id)
				if !ok {
					t.Errorf("%s vanished", fx.id)
					return
				}
				// The handle may be a closed pre-eviction incarnation —
				// reads must still work and the grammar must validate.
				if err := st.Snapshot().Validate(); err != nil {
					t.Error(err)
					return
				}
				if _, err := ss.CountLabel(fx.id, "fresh0"); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	var writers sync.WaitGroup
	for _, fx := range docs {
		writers.Add(1)
		go func(fx *docFixture) {
			defer writers.Done()
			for off := 0; off < len(fx.ops); off += batch {
				if err := ss.ApplyAll(fx.id, fx.ops[off:min(off+batch, len(fx.ops))]); err != nil {
					t.Errorf("%s: %v", fx.id, err)
					return
				}
			}
		}(fx)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	ss.Quiesce()

	if st := ss.Stats(); st.Evictions == 0 {
		t.Fatalf("tiny budget %d never evicted", tcfg.MemoryBudget)
	}
	for _, fx := range docs {
		g, err := ss.Snapshot(fx.id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		if !sameLabeledTree(g.Syms, got, fx.final.Syms, fx.final.Root) {
			t.Fatalf("%s: concurrent tiered fleet did not converge to its document", fx.id)
		}
	}
}

// TestEvictedHandleSemantics pins the contract for direct *Store
// handles that survive an eviction: reads keep serving the final
// pre-eviction state, writes fail with ErrClosed (never silently
// diverge), and the by-ID write path transparently rehydrates.
func TestEvictedHandleSemantics(t *testing.T) {
	root := xmltree.NewUnranked("r", xmltree.NewUnranked("a"), xmltree.NewUnranked("b"))
	g, _ := treerepair.Compress(root.Binary(), treerepair.Options{})
	ss := NewSharded(1, Config{Ratio: -1, MemoryBudget: 1}) // everything is over budget
	defer ss.Close()
	handle, err := ss.Open("doc", g)
	if err != nil {
		t.Fatal(err)
	}
	// Any write batch triggers eviction of every idle document —
	// including this one, once the batch releases its locks. The writer
	// runs that eviction itself before Apply returns (no other evictor
	// holds evictMu here), so it has happened by the time Apply acks.
	if err := ss.Apply("doc", update.Op{Kind: update.Rename, Pos: 1, Label: "z"}); err != nil {
		t.Fatal(err)
	}
	if n := ss.Stats().Evicted; n != 1 {
		t.Fatalf("%d documents evicted under budget 1, want 1", n)
	}
	preEvict := encodeBytes(t, handle.Snapshot())
	if err := handle.Apply(update.Op{Kind: update.Rename, Pos: 1, Label: "w"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write on evicted handle: err=%v, want ErrClosed", err)
	}
	if !bytes.Equal(encodeBytes(t, handle.Snapshot()), preEvict) {
		t.Fatal("evicted handle's final state moved")
	}
	// The by-ID path rehydrates and the rejected write never applied.
	if err := ss.Apply("doc", update.Op{Kind: update.Rename, Pos: 1, Label: "y"}); err != nil {
		t.Fatal(err)
	}
	gNow, err := ss.Snapshot("doc")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := gNow.ValNodeCount(); err != nil || n == 0 {
		t.Fatalf("rehydrated document unreadable: n=%d err=%v", n, err)
	}
	if hist, err := ss.CountLabel("doc", "w"); err != nil || hist != 0 {
		t.Fatalf("rejected write leaked into the document: count(w)=%v err=%v", hist, err)
	}
	if st := ss.Stats(); st.Hydrations == 0 {
		t.Fatal("no rehydration counted")
	}
}

// TestIncrementalSizeExact pins the incremental |G| accounting behind
// the batch policy and Stats: across a workload that exercises every
// rule-set mutation (per-batch GC of stranded rules, recompression),
// the incrementally maintained size must equal a from-scratch walk of
// the published grammar after every batch.
func TestIncrementalSizeExact(t *testing.T) {
	docs := shardedFixtures(t, 1, 200)
	fx := docs[0]
	st := New(fx.g0.Clone(), Config{Ratio: 1.2, MinSize: 16})
	for off := 0; off < len(fx.ops); off += 16 {
		end := min(off+16, len(fx.ops))
		if err := st.ApplyAll(fx.ops[off:end]); err != nil {
			t.Fatal(err)
		}
		if got, want := st.Stats().Size, st.Snapshot().Size(); got != want {
			t.Fatalf("after %d ops: incremental |G| %d, recomputed %d", end, got, want)
		}
	}
	// The mutations the test claims to cover must actually happen.
	if s := st.Stats(); s.GCRuns == 0 || s.Recompressions == 0 {
		t.Fatalf("stream exercised %d GC runs and %d recompressions; want both > 0", s.GCRuns, s.Recompressions)
	}
	st.Recompress()
	if got, want := st.Stats().Size, st.Snapshot().Size(); got != want {
		t.Fatalf("after recompress: incremental |G| %d, recomputed %d", got, want)
	}
}
