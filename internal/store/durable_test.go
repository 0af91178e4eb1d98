package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/update"
	"repro/internal/wal"
	"repro/internal/workload"
)

// durWorkload builds a compressed seed grammar and an update stream
// partitioned into the batches the tests will ApplyAll one by one.
func durWorkload(t *testing.T, short string, nOps, batch int) (*grammar.Grammar, [][]update.Op) {
	t.Helper()
	c, ok := datasets.ByShort(short)
	if !ok {
		t.Fatalf("no %s corpus", short)
	}
	seq, err := workload.Updates(c.Generate(0.05, 5), nOps, 70, 29)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := treerepair.Compress(seq.Seed, treerepair.Options{})
	var batches [][]update.Op
	for off := 0; off < len(seq.Ops); off += batch {
		batches = append(batches, seq.Ops[off:min(off+batch, len(seq.Ops))])
	}
	return g, batches
}

// encLive encodes a Store's live grammar under its read lock — the
// byte string the differential tests compare.
func encLive(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Query(func(g *grammar.Grammar) error {
		return grammar.Encode(&buf, g)
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayRef replays the first nOps ops of batches through a fresh
// in-memory Store with the same maintenance config and returns the
// encoded grammar — the clean-replay ground truth.
func replayRef(t *testing.T, g0 *grammar.Grammar, batches [][]update.Op, nOps int64) []byte {
	t.Helper()
	ref := New(g0.Clone(), Config{Ratio: -1})
	var done int64
	for _, b := range batches {
		if done == nOps {
			break
		}
		if done+int64(len(b)) > nOps {
			t.Fatalf("position %d is not a batch boundary", nOps)
		}
		if err := ref.ApplyAll(b); err != nil {
			t.Fatal(err)
		}
		done += int64(len(b))
	}
	if done != nOps {
		t.Fatalf("position %d past the stream end %d", nOps, done)
	}
	return encLive(t, ref)
}

func durCfg(dir string, snapEvery int64, fsync wal.FsyncPolicy, inj wal.Injector) Config {
	return Config{
		Ratio: -1, // byte-identity needs a deterministic maintenance path
		Durability: &Durability{
			Dir:              dir,
			Fsync:            fsync,
			SnapshotEveryOps: snapEvery,
			SegmentBytes:     512, // roll often: exercise seal/truncate
			Injector:         inj,
		},
	}
}

func TestDurableReopenByteIdentical(t *testing.T) {
	for _, short := range []string{"EW", "XM", "TB"} {
		t.Run(short, func(t *testing.T) {
			g0, batches := durWorkload(t, short, 120, 8)
			dir := t.TempDir()
			cfg := durCfg(dir, 32, wal.FsyncBatch, nil)
			st, err := CreateDurable("doc", g0.Clone(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, b := range batches[:len(batches)-1] {
				if err := st.ApplyAll(b); err != nil {
					t.Fatal(err)
				}
				total += int64(len(b))
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Apply(batches[0][0]); !errors.Is(err, ErrClosed) {
				t.Fatalf("write after Close: %v", err)
			}

			re, err := OpenDurable("doc", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := encLive(t, re), replayRef(t, g0, batches, total); !bytes.Equal(got, want) {
				t.Fatal("reopened grammar differs from clean replay")
			}
			stats := re.Stats()
			if !stats.Durable || stats.WALBroken {
				t.Fatalf("stats: %+v", stats)
			}
			// A clean close truncated nothing and every snapshot loaded.
			if stats.TruncatedTailRecords != 0 || stats.SnapshotsCorrupt != 0 {
				t.Fatalf("clean reopen reported damage: %+v", stats)
			}

			// The reopened Store keeps serving writes durably.
			last := batches[len(batches)-1]
			if err := re.ApplyAll(last); err != nil {
				t.Fatal(err)
			}
			total += int64(len(last))
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := OpenDurable("doc", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			if got, want := encLive(t, re2), replayRef(t, g0, batches, total); !bytes.Equal(got, want) {
				t.Fatal("second reopen diverged")
			}
		})
	}
}

// TestKillAndReopenDifferential is the fault-injection differential:
// for every corpus, a durable document is killed at randomized crash
// points — torn WAL writes, crashes inside snapshot publication,
// failed fsyncs, failed renames/removes mid-truncate — and reopened.
// The reopened state must be byte-identical to a clean sequential
// replay of some batch-aligned prefix covering at least every acked
// batch, and must keep serving writes afterwards.
func TestKillAndReopenDifferential(t *testing.T) {
	for _, short := range []string{"EW", "XM", "TB"} {
		t.Run(short, func(t *testing.T) {
			g0, batches := durWorkload(t, short, 120, 8)
			var totalOps int64
			for _, b := range batches {
				totalOps += int64(len(b))
			}
			// Probe a clean run for its WAL volume, so random byte
			// budgets land inside the actual write traffic.
			probeDir := t.TempDir()
			probe, err := CreateDurable("doc", g0.Clone(), durCfg(probeDir, 24, wal.FsyncBatch, nil))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if err := probe.ApplyAll(b); err != nil {
					t.Fatal(err)
				}
			}
			walVolume := probe.Stats().WALBytes
			probe.Close()

			rng := rand.New(rand.NewSource(41))
			type trial struct {
				name string
				plan func() *wal.CrashPlan
			}
			var trials []trial
			for i := 0; i < 6; i++ {
				budget := rng.Int63n(walVolume + 64)
				trials = append(trials, trial{
					name: fmt.Sprintf("walbytes-%d", budget),
					plan: func() *wal.CrashPlan {
						p := wal.NewCrashPlan()
						p.WALWriteBytes = budget
						return p
					},
				})
			}
			for i := 0; i < 2; i++ {
				budget := rng.Int63n(256)
				trials = append(trials, trial{
					name: fmt.Sprintf("snapbytes-%d", budget),
					plan: func() *wal.CrashPlan {
						p := wal.NewCrashPlan()
						p.SnapshotWriteBytes = budget
						return p
					},
				})
			}
			for _, metas := range []int{1, 2} {
				m := metas
				trials = append(trials, trial{
					name: fmt.Sprintf("metaops-%d", m),
					plan: func() *wal.CrashPlan {
						p := wal.NewCrashPlan()
						p.MetaOps = m
						return p
					},
				})
			}
			syncs := 3 + int(rng.Int63n(20))
			trials = append(trials, trial{
				name: fmt.Sprintf("syncs-%d", syncs),
				plan: func() *wal.CrashPlan {
					p := wal.NewCrashPlan()
					p.Syncs = syncs
					return p
				},
			})
			trials = append(trials, trial{name: "clean", plan: wal.NewCrashPlan})

			for _, tr := range trials {
				t.Run(tr.name, func(t *testing.T) {
					dir := t.TempDir()
					plan := tr.plan()
					crashCfg := durCfg(dir, 24, wal.FsyncBatch, plan)
					st, err := CreateDurable("doc", g0.Clone(), crashCfg)
					if err != nil {
						// The crash landed inside Create itself (tiny
						// budgets): nothing was opened, nothing to check.
						return
					}
					var acked int64
					for _, b := range batches {
						if err := st.ApplyAll(b); err != nil {
							break
						}
						acked += int64(len(b))
					}
					// Simulate the kill: wait out background goroutines
					// (a dead process has none), then abandon the Store
					// WITHOUT Close — no final fsync, no flush, file
					// handles simply dropped.
					st.Wait()

					re, err := OpenDurable("doc", durCfg(dir, 24, wal.FsyncBatch, nil))
					if err != nil {
						t.Fatalf("recovery failed: %v", err)
					}
					// Find the recovered op count from the clean replay
					// comparison instead of trusting internals: it must be
					// a batch boundary ≥ acked, ≤ total.
					var boundaries []int64
					var sum int64
					boundaries = append(boundaries, 0)
					for _, b := range batches {
						sum += int64(len(b))
						boundaries = append(boundaries, sum)
					}
					got := encLive(t, re)
					match := int64(-1)
					for _, p := range boundaries {
						if p < acked || p > totalOps {
							continue
						}
						if bytes.Equal(got, replayRef(t, g0, batches, p)) {
							match = p
							break
						}
					}
					if match < 0 {
						t.Fatalf("reopened state matches no clean batch-aligned replay ≥ %d acked ops", acked)
					}
					recovered := match

					// The reopened document must accept the rest of the
					// stream and land byte-identical to the full replay.
					var done int64
					for _, b := range batches {
						if done < recovered {
							done += int64(len(b))
							continue
						}
						if err := re.ApplyAll(b); err != nil {
							t.Fatalf("append after recovery: %v", err)
						}
						done += int64(len(b))
					}
					if err := re.Close(); err != nil {
						t.Fatal(err)
					}
					re2, err := OpenDurable("doc", durCfg(dir, 24, wal.FsyncBatch, nil))
					if err != nil {
						t.Fatal(err)
					}
					defer re2.Close()
					if !bytes.Equal(encLive(t, re2), replayRef(t, g0, batches, totalOps)) {
						t.Fatal("post-recovery writes diverged from clean replay")
					}
				})
			}
		})
	}
}

// TestDurableWithRecompressionRecoversDocument: with the full
// maintenance machinery on (auto + async recompression, refold), the
// encoded bytes legitimately differ between a live grammar and its
// snapshot+replay reconstruction — but the derived document must not.
func TestDurableWithRecompressionRecoversDocument(t *testing.T) {
	g0, batches := durWorkload(t, "XM", 150, 10)
	dir := t.TempDir()
	cfg := Config{
		Ratio:   1.2,
		MinSize: 16,
		Async:   true,
		Durability: &Durability{
			Dir:              dir,
			Fsync:            wal.FsyncOff,
			SnapshotEveryOps: 30,
		},
	}
	st, err := CreateDurable("doc", g0.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(g0.Clone(), Config{Ratio: -1})
	for _, b := range batches {
		if err := st.ApplyAll(b); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyAll(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable("doc", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reTree := mustTree(t, re.Snapshot())
	refTree := mustTree(t, ref.Snapshot())
	var reSyms, refSyms = re.Snapshot().Syms, ref.Snapshot().Syms
	if !sameLabeledTree(reSyms, reTree, refSyms, refTree) {
		t.Fatal("recovered document differs under recompression")
	}
}

// TestShardedDurableFleet drives a whole fleet through OpenSharded:
// many documents, concurrent writers, a hard stop, and a full-fleet
// recovery that must restore every document byte-identically.
func TestShardedDurableFleet(t *testing.T) {
	g0, batches := durWorkload(t, "EW", 96, 6)
	dir := filepath.Join(t.TempDir(), "fleet")
	cfg := durCfg(dir, 24, wal.FsyncOff, nil)
	s, err := OpenSharded(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const docs = 6
	for d := 0; d < docs; d++ {
		if _, err := s.Open(fmt.Sprintf("doc-%d", d), g0.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	// Per-document batch counts differ, so recovery positions differ.
	var wg sync.WaitGroup
	for d := 0; d < docs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for _, b := range batches[:len(batches)-d%3] {
				if err := s.ApplyAll(fmt.Sprintf("doc-%d", d), b); err != nil {
					t.Errorf("doc-%d: %v", d, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	s.Quiesce() // snapshot publication counts as background work
	fs := s.Stats()
	if fs.WALAppends == 0 || fs.Snapshots == 0 || fs.WALBytes == 0 {
		t.Fatalf("fleet stats show no durability activity: %+v", fs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSharded(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumDocs() != docs {
		t.Fatalf("recovered %d of %d docs", re.NumDocs(), docs)
	}
	for d := 0; d < docs; d++ {
		id := fmt.Sprintf("doc-%d", d)
		st, ok := re.Get(id)
		if !ok {
			t.Fatalf("%s missing after reopen", id)
		}
		var want int64
		for _, b := range batches[:len(batches)-d%3] {
			want += int64(len(b))
		}
		if got := encLive(t, st); !bytes.Equal(got, replayRef(t, g0, batches, want)) {
			t.Fatalf("%s diverged after fleet recovery", id)
		}
	}
	rs := re.Stats()
	if rs.RecoveredOps == 0 {
		t.Fatalf("fleet recovery stats empty: %+v", rs)
	}
}

// TestClosedFleetIsDeterministic pins the use-after-close contract
// under the race detector: writers racing Close see either a clean
// ack or ErrClosed — never a hang, never a third error — and every
// post-Close mutation fails with ErrClosed while reads keep working.
func TestClosedFleetIsDeterministic(t *testing.T) {
	g0, batches := durWorkload(t, "EW", 40, 4)
	s := NewSharded(3, Config{Ratio: -1})
	const docs = 5
	for d := 0; d < docs; d++ {
		if _, err := s.Open(fmt.Sprintf("doc-%d", d), g0.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for d := 0; d < docs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			id := fmt.Sprintf("doc-%d", d)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := s.ApplyAll(id, batches[i%len(batches)])
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("writer saw non-ErrClosed error: %v", err)
					return
				}
				if err != nil {
					return
				}
			}
		}(d)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Every mutation path now fails deterministically...
	if err := s.ApplyAll("doc-0", batches[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ApplyAll after Close: %v", err)
	}
	if err := s.Apply("doc-1", batches[0][0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: %v", err)
	}
	if _, err := s.Open("late", g0.Clone()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after Close: %v", err)
	}
	st, ok := s.Get("doc-0")
	if !ok {
		t.Fatal("doc-0 gone after Close")
	}
	if err := st.ApplyAll(batches[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Store.ApplyAll after Close: %v", err)
	}
	// ...and Close is idempotent while reads still serve.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Elements(); err != nil {
		t.Fatalf("read after Close: %v", err)
	}
	if err := s.Query("doc-0", func(*grammar.Grammar) error { return nil }); err != nil {
		t.Fatalf("Query after Close: %v", err)
	}
}

// parkInjector passes every WAL file operation through, except that
// once armed it parks the next one until release is closed: a WAL
// recovery held at a point the test chooses.
type parkInjector struct {
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkInjector) Inject(_ wal.FileKind, _ wal.OpKind, b []byte) (int, error) {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return len(b), nil
}

// isClosed reports whether Close has run on st.
func isClosed(st *Store) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

// TestCloseWaitsOutRehydration pins that a fleet Close closes a Store
// whose rehydration was already in flight when Close began. The evicted
// document "cold" (shard 1) is rehydrated by Get, and its WAL recovery
// is parked. Close runs concurrently, and the recovery is released only
// once Close has closed the resident document "hot" (shard 0), i.e. once
// Close has moved past it. The handle Get returns must then reject
// writes: Close closed (and fsynced) its WAL. The ordering is enforced
// by the park and by the closed flag, not by timing.
func TestCloseWaitsOutRehydration(t *testing.T) {
	g0, batches := durWorkload(t, "XM", 20, 5)
	inj := &parkInjector{parked: make(chan struct{}), release: make(chan struct{})}
	s := NewSharded(2, durCfg(t.TempDir(), -1, wal.FsyncBatch, inj))
	hot, cold := idInShard(s, 0, "hot"), idInShard(s, 1, "cold")
	hotSt, err := s.Open(hot, g0.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(cold, g0.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyAll(cold, batches[0]); err != nil {
		t.Fatal(err)
	}
	// No memory budget: nothing evicts but this.
	s.evictMu.Lock()
	evicted := s.evictEntry(s.shards[1].docs[cold])
	s.evictMu.Unlock()
	if !evicted {
		t.Fatal("cold document not evicted")
	}

	inj.armed.Store(true)
	got := make(chan *Store, 1)
	go func() {
		st, _ := s.Get(cold)
		got <- st
	}()
	<-inj.parked
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for !isClosed(hotSt) {
		runtime.Gosched()
	}
	close(inj.release)

	st := <-got
	if st == nil {
		t.Fatal("rehydration started before Close was refused")
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(batches[1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("write through a handle rehydrated during Close: err=%v, want ErrClosed", err)
	}
}

// TestWALBrokenFailsFast: once a WAL append fails, the Store must
// reject every later write before applying it — the in-memory state
// never drifts further from disk — while reads keep serving.
func TestWALBrokenFailsFast(t *testing.T) {
	g0, batches := durWorkload(t, "EW", 40, 4)
	plan := wal.NewCrashPlan()
	dir := t.TempDir()
	st, err := CreateDurable("doc", g0.Clone(), durCfg(dir, -1, wal.FsyncOff, plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyAll(batches[0]); err != nil {
		t.Fatal(err)
	}
	// Trip the plan so the next append tears.
	plan.WALWriteBytes = 1
	if err := st.ApplyAll(batches[1]); err == nil {
		t.Fatal("torn append acked")
	}
	epoch := st.Epoch()
	if err := st.ApplyAll(batches[2]); err == nil {
		t.Fatal("write on broken store acked")
	}
	if st.Epoch() != epoch {
		t.Fatal("broken store still applied ops")
	}
	if !st.Stats().WALBroken {
		t.Fatal("stats do not report the broken WAL")
	}
	if _, err := st.Elements(); err != nil {
		t.Fatalf("read on broken store: %v", err)
	}
	st.Close()
	// Reopen recovers the acked prefix (the torn batch was never acked).
	re, err := OpenDurable("doc", durCfg(dir, -1, wal.FsyncOff, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(encLive(t, re), replayRef(t, g0, batches, int64(len(batches[0])))) {
		t.Fatal("recovery after broken WAL diverged")
	}
}
