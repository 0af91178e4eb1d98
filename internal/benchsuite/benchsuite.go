// Package benchsuite pins the corpus setup shared by the repo's go-test
// micro benchmarks (bench_test.go) and the machine-readable perf record
// (`benchtables -json`). Both surfaces must measure the same documents
// and the same degraded grammars, or BENCH_<n>.json stops being
// comparable with `go test -bench` output across perf PRs.
package benchsuite

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	sltgrammar "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/grammar"
	"repro/internal/loadgen"
	"repro/internal/store"
	"repro/internal/update"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Seeds and workload sizes of the micro benchmarks.
const (
	// MicroScale is the corpus scale every micro benchmark runs at,
	// regardless of the experiment-driver scale: BENCH_<n>.json entries
	// are only comparable across PRs (and with `go test -bench`) when
	// they measure the same documents.
	MicroScale = 0.08
	// CorpusSeed generates the micro-benchmark documents.
	CorpusSeed = 1
	// RenameSeed drives the rename workload that degrades the grammar
	// measured by the recompression benchmarks.
	RenameSeed = 7
	// RenameOps is the number of renames applied before recompression.
	RenameOps = 30
	// UpdateStreamOps is the length of the inverse-seeded workload the
	// update-stream benchmarks replay (90 % inserts, the paper's mix).
	UpdateStreamOps = 200
	// UpdateStreamSeed drives that workload.
	UpdateStreamSeed = 11
	// UpdateStreamBatch is the ingestion granularity of the Store track:
	// a serving engine sees the stream as a sequence of small batches,
	// which is what lets the recompression policy act mid-stream.
	UpdateStreamBatch = 20
	// ShardedDocs is the document count of the multi-document
	// (UpdateStreamSharded) track: enough documents that hashing spreads
	// them over every shard configuration being compared.
	ShardedDocs = 8
)

// Read-stream track: the zero-copy read path measured against a live
// writer (generational reads — see repro/internal/store).
const (
	// ReadStreamRenames is the length of the position-stable rename
	// cycle the background writer replays for the duration of the
	// measured loop. Renames never move preorder positions, so the
	// cycle can repeat forever against the same document.
	ReadStreamRenames = 64
	// ReadStreamSeed drives that rename cycle.
	ReadStreamSeed = 13
	// ReadStreamLabel is the element label the measured query counts.
	// The writer's first cycle renames a node to it, so the query runs
	// against label-usage state the writer keeps republishing.
	ReadStreamLabel = "fresh0"
)

// Point-query track: random preorder lookups on the degraded grammar
// the pinned update stream leaves behind, while a writer keeps the
// document moving — the serving regime the read-side spine view exists
// for.
const (
	// PointQuerySeed draws the pinned pseudo-random lookup positions.
	PointQuerySeed = 19
	// PointQueryCount is how many lookups one benchmark op performs.
	PointQueryCount = 64
)

// Tiered-fleet track: many documents under a memory budget a fraction
// of the fleet's resident footprint, driven by a Zipf-skewed schedule —
// the regime the ShardedStore memory tier exists for.
const (
	// TieredDocs is the fleet size.
	TieredDocs = 256
	// TieredPoolDocs is the number of distinct pinned documents the
	// fleet is cloned from: setup cost stays tractable at TieredDocs
	// documents while the fleet still mixes genuinely different
	// grammars and streams.
	TieredPoolDocs = 8
	// TieredBatch, TieredSkew and TieredSeed pin the ZipfFleet
	// schedule interleaving the per-document streams.
	TieredBatch = 10
	TieredSkew  = 1.4
	TieredSeed  = 17
	// TieredBudgetDiv sets the memory budget: the unbounded fleet's
	// initial resident bytes divided by this, forcing the cold tail to
	// evict while the Zipf head stays resident.
	TieredBudgetDiv = 4
)

// Serve-stream track: the pinned multi-document streams replayed over
// the network front-end (sltgrammar.Serve) by concurrent wire clients,
// so BENCH_<n>.json records serving latency (p50/p99 per acked batch)
// alongside ns/op — the number a deployment is actually sized by.
const (
	// ServeConns is the client connection count; batches for one
	// document always ride one connection, preserving per-document op
	// order over the wire.
	ServeConns = 4
	// ServeShards is the served fleet's shard count.
	ServeShards = 4
	// ServeBatch, ServeSkew and ServeSeed pin the ZipfFleet schedule
	// interleaving the per-document streams.
	ServeBatch = 10
	ServeSkew  = 1.4
	ServeSeed  = 23
)

// ShardedShardCounts are the shard configurations the multi-document
// track sweeps; aggregate throughput across them is the scaling record.
var ShardedShardCounts = []int{1, 2, 4}

// MicroShorts are the corpora the micro benchmarks run on: one
// exponentially compressing (EW), one moderate (XM), one hard (TB).
var MicroShorts = []string{"EW", "XM", "TB"}

// doc returns the pinned micro-benchmark document for a corpus.
func doc(short string) *sltgrammar.Document {
	c, ok := datasets.ByShort(short)
	if !ok {
		panic(fmt.Sprintf("benchsuite: unknown corpus %q", short))
	}
	return sltgrammar.Encode(c.Generate(MicroScale, CorpusSeed))
}

// degraded returns the corpus document's TreeRePair grammar after the
// pinned rename workload — the input the recompression benchmarks
// measure.
func degraded(short string) *sltgrammar.Grammar {
	d := doc(short)
	g0, _ := sltgrammar.Compress(d)
	ops := workload.Renames(d, RenameOps, RenameSeed)
	g := g0.Clone()
	if err := sltgrammar.ApplyAll(g, ops); err != nil {
		panic(fmt.Sprintf("benchsuite: degrading %s: %v", short, err))
	}
	return g
}

// CompressBench returns the micro benchmark body measuring TreeRePair on
// the pinned corpus document (setup happens at call time, outside the
// measured loop). Both `go test -bench` and `benchtables -json` run this
// exact body.
func CompressBench(short string) func(b *testing.B) {
	d := doc(short)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sltgrammar.Compress(d)
		}
	}
}

// RecompressBench returns the micro benchmark body measuring
// GrammarRePair recompression of the pinned degraded grammar.
func RecompressBench(short string) func(b *testing.B) {
	g := degraded(short)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sltgrammar.Recompress(g)
		}
	}
}

// pruneBatch is how many unpruned grammars PruneBench clones per
// stopped-timer window: the clones stay outside the measured time
// without stopping the timer around every op.
const pruneBatch = 32

// PruneBench returns the micro benchmark body measuring grammar.Prune
// alone, on the grammar that GrammarRePair recompression of the pinned
// degraded grammar hands to its pruning phase. Each op prunes a fresh
// clone, made with the timer stopped.
func PruneBench(short string) func(b *testing.B) {
	g := core.Unpruned(degraded(short), core.Options{})
	return func(b *testing.B) {
		b.ReportAllocs()
		batch := make([]*grammar.Grammar, 0, pruneBatch)
		for i := 0; i < b.N; i += pruneBatch {
			b.StopTimer()
			batch = batch[:0]
			for j := i; j < b.N && j < i+pruneBatch; j++ {
				batch = append(batch, g.Clone())
			}
			b.StartTimer()
			for _, c := range batch {
				c.Prune()
			}
		}
	}
}

// updateStream returns the pinned update-stream input: the corpus
// document's seed grammar and the inverse-seeded operation sequence that
// replays it back to the corpus.
func updateStream(short string) (*sltgrammar.Grammar, []sltgrammar.Op) {
	c, ok := datasets.ByShort(short)
	if !ok {
		panic(fmt.Sprintf("benchsuite: unknown corpus %q", short))
	}
	u := c.Generate(MicroScale, CorpusSeed)
	seq, err := workload.Updates(u, UpdateStreamOps, 90, UpdateStreamSeed)
	if err != nil {
		panic(fmt.Sprintf("benchsuite: workload for %s: %v", short, err))
	}
	g, _ := sltgrammar.Compress(seq.Seed)
	return g, seq.Ops
}

// StoreUpdateStreamBench measures ingesting the pinned workload through
// a Store — cached size vectors, one garbage collection per batch — fed
// in UpdateStreamBatch-sized batches like a serving engine would see
// them. Auto-recompression is disabled so the Store does exactly the
// same semantic work as the per-op baseline and the two numbers isolate
// the update-path win; recompression amortizes only over much longer
// streams than a pinned micro benchmark.
func StoreUpdateStreamBench(short string) func(b *testing.B) {
	g, ops := updateStream(short)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cp := g.Clone()
			b.StartTimer()
			// NewStore's cache warm-up (one cold ValSizes pass) is part of
			// the engine's cost and stays inside the timed region.
			st := sltgrammar.NewStore(cp, sltgrammar.StoreConfig{Ratio: -1})
			for done := 0; done < len(ops); done += UpdateStreamBatch {
				end := done + UpdateStreamBatch
				if end > len(ops) {
					end = len(ops)
				}
				if err := st.ApplyAll(ops[done:end]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// DurableFsyncModes are the fsync policies the durable update-stream
// track sweeps: "batch" is the no-loss contract (one fsync per acked
// batch — the dominant cost), "off" isolates the WAL encode+write
// overhead itself.
var DurableFsyncModes = []struct {
	Name  string
	Fsync wal.FsyncPolicy
}{
	{"batch", wal.FsyncBatch},
	{"off", wal.FsyncOff},
}

// StoreUpdateStreamDurableBench measures the same pinned workload as
// StoreUpdateStreamBench through a durable Store: every batch is
// op-encoded and appended to the write-ahead log (and, under
// fsync=batch, fsynced) before the ack. The delta against the
// in-memory track is the price of durability; snapshots are disabled
// so the number isolates the append path.
func StoreUpdateStreamDurableBench(short string, fsync wal.FsyncPolicy) func(b *testing.B) {
	g, ops := updateStream(short)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cp := g.Clone()
			dir := b.TempDir()
			b.StartTimer()
			st, err := store.CreateDurable("bench", cp, store.Config{
				Ratio: -1,
				Durability: &store.Durability{
					Dir:              dir,
					Fsync:            fsync,
					SnapshotEveryOps: -1,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			for done := 0; done < len(ops); done += UpdateStreamBatch {
				end := min(done+UpdateStreamBatch, len(ops))
				if err := st.ApplyAll(ops[done:end]); err != nil {
					b.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// shardedInput is the pinned multi-document workload: document d of a
// corpus is generated with seed CorpusSeed+d and replayed by the
// inverse-seeded sequence with seed UpdateStreamSeed+d, so the
// documents are genuinely distinct but every run (and every shard
// configuration) measures exactly the same streams.
type shardedInput struct {
	ids  []string
	gs   []*sltgrammar.Grammar
	opss [][]sltgrammar.Op
}

var (
	shardedMu     sync.Mutex
	shardedInputs = map[string]*shardedInput{}
)

func shardedStream(short string, docs int) *shardedInput {
	shardedMu.Lock()
	defer shardedMu.Unlock()
	key := fmt.Sprintf("%s/%d", short, docs)
	if in, ok := shardedInputs[key]; ok {
		return in
	}
	c, ok := datasets.ByShort(short)
	if !ok {
		panic(fmt.Sprintf("benchsuite: unknown corpus %q", short))
	}
	in := &shardedInput{}
	for d := 0; d < docs; d++ {
		u := c.Generate(MicroScale, CorpusSeed+int64(d))
		seq, err := workload.Updates(u, UpdateStreamOps, 90, UpdateStreamSeed+int64(d))
		if err != nil {
			panic(fmt.Sprintf("benchsuite: workload for %s doc %d: %v", short, d, err))
		}
		g, _ := sltgrammar.Compress(seq.Seed)
		in.ids = append(in.ids, fmt.Sprintf("%s-doc-%02d", short, d))
		in.gs = append(in.gs, g)
		in.opss = append(in.opss, seq.Ops)
	}
	shardedInputs[key] = in
	return in
}

// ShardedUpdateStreamBench measures aggregate multi-document ingestion
// through a ShardedStore: ShardedDocs disjoint documents, one writer
// goroutine per document, each batch applied under its shard's write lock.
// One benchmark iteration ingests every document's full stream, so
// ns/op is the aggregate wall-clock of the whole fleet — comparing it
// across shard counts is the scaling record. Recompression is disabled
// for the same reason as StoreUpdateStreamBench: every configuration
// must do identical semantic work.
func ShardedUpdateStreamBench(short string, shards, docs int) func(b *testing.B) {
	in := shardedStream(short, docs)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			clones := make([]*sltgrammar.Grammar, len(in.gs))
			for d, g := range in.gs {
				clones[d] = g.Clone()
			}
			b.StartTimer()
			ss := sltgrammar.NewShardedStore(shards, sltgrammar.StoreConfig{Ratio: -1})
			for d, g := range clones {
				if _, err := ss.Open(in.ids[d], g); err != nil {
					b.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for d := range in.opss {
				wg.Add(1)
				go func(d int) {
					defer wg.Done()
					ops := in.opss[d]
					for done := 0; done < len(ops); done += UpdateStreamBatch {
						end := min(done+UpdateStreamBatch, len(ops))
						if err := ss.ApplyAll(in.ids[d], ops[done:end]); err != nil {
							b.Error(err)
							return
						}
					}
				}(d)
			}
			wg.Wait()
			ss.Close()
		}
	}
}

// ServeStreamBench measures serving the pinned multi-document streams
// over the network front-end: a loopback server over a ShardedDocs
// fleet, the pinned ZipfFleet schedule replayed by ServeConns wire
// clients (loadgen), every batch a full request/ack round trip through
// frame codec, shard write lock, and back. One benchmark iteration replays
// the whole schedule, so ns/op is the aggregate wall-clock of the
// served fleet; the client-observed batch latency distribution is
// merged across iterations and reported as p50-ns / p99-ns extra
// metrics. Recompression is disabled so every run does identical
// semantic work (the in-memory tracks' rule); the delta against
// UpdateStreamSharded on the same streams is the price of the wire.
func ServeStreamBench(short string) func(b *testing.B) {
	in := shardedStream(short, ShardedDocs)
	sched := workload.ZipfFleet(in.opss, ServeBatch, ServeSkew, ServeSeed)
	return func(b *testing.B) {
		b.ReportAllocs()
		var lats []time.Duration
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			clones := make([]*sltgrammar.Grammar, len(in.gs))
			for d, g := range in.gs {
				clones[d] = g.Clone()
			}
			ss := sltgrammar.NewShardedStore(ServeShards, sltgrammar.StoreConfig{Ratio: -1})
			for d, g := range clones {
				if _, err := ss.Open(in.ids[d], g); err != nil {
					b.Fatal(err)
				}
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := sltgrammar.Serve(ln, ss)
			b.StartTimer()
			rep, err := loadgen.Run(loadgen.Config{
				Addr:     srv.Addr().String(),
				Conns:    ServeConns,
				IDs:      in.ids,
				Schedule: sched,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			lats = append(lats, rep.Latencies...)
			srv.Close()
			ss.Close()
			b.StartTimer()
		}
		b.StopTimer()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(loadgen.Quantile(lats, 0.50)), "p50-ns")
		b.ReportMetric(float64(loadgen.Quantile(lats, 0.99)), "p99-ns")
	}
}

// StoreReadStreamBench measures the generational read path against a
// live writer: a background goroutine keeps replaying the pinned
// position-stable rename cycle in UpdateStreamBatch-sized batches while
// the measured loop opens a cursor over a zero-copy snapshot, descends
// to a leaf, and counts a label. With reads pinning published
// generations instead of holding a lock, ns/op is the cost of serving
// one read during ingestion — it must not scale with writer throughput
// (the pre-generational read path serialized against the write lock).
func StoreReadStreamBench(short string) func(b *testing.B) {
	d := doc(short)
	g0, _ := sltgrammar.Compress(d)
	renames := workload.Renames(d, ReadStreamRenames, ReadStreamSeed)
	return func(b *testing.B) {
		b.ReportAllocs()
		st := sltgrammar.NewStore(g0.Clone(), sltgrammar.StoreConfig{Ratio: -1})
		// First cycle before the clock starts: ReadStreamLabel exists
		// from here on, and the steady state is re-renames only.
		if err := st.ApplyAll(renames); err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				for off := 0; off < len(renames); off += UpdateStreamBatch {
					select {
					case <-stop:
						return
					default:
					}
					end := min(off+UpdateStreamBatch, len(renames))
					if err := st.ApplyAll(renames[off:end]); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur, err := st.Cursor()
			if err != nil {
				b.Fatal(err)
			}
			for cur.FirstChild() == nil {
			}
			if _, err := st.CountLabel(ReadStreamLabel); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		<-done
	}
}

// StorePointQueryBench measures random point lookups against a
// degraded grammar under a streaming writer: the store first ingests
// the pinned insert-heavy stream (leaving the long unfolded chains
// point queries must cross), then a background goroutine keeps
// replaying the position-stable rename cycle while the measured loop
// performs PointQueryCount preorder lookups at pinned pseudo-random
// positions. indexed selects the generation's frozen spine view
// (chunk-by-sum seeks); false forces the naive size-vector descent —
// the differential baseline in the same record, doing identical
// semantic work on the identical document.
func StorePointQueryBench(short string, indexed bool) func(b *testing.B) {
	g, ops := updateStream(short)
	// The stream replays the document back to the pinned corpus, so the
	// corpus rename cycle stays position-stable forever.
	renames := workload.Renames(doc(short), ReadStreamRenames, ReadStreamSeed)
	return func(b *testing.B) {
		b.ReportAllocs()
		st := sltgrammar.NewStore(g.Clone(), sltgrammar.StoreConfig{Ratio: -1})
		for done := 0; done < len(ops); done += UpdateStreamBatch {
			end := min(done+UpdateStreamBatch, len(ops))
			if err := st.ApplyAll(ops[done:end]); err != nil {
				b.Fatal(err)
			}
		}
		total, err := st.TreeSize()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(PointQuerySeed))
		positions := make([]int64, PointQueryCount)
		for i := range positions {
			positions[i] = rng.Int63n(total)
		}
		stop := make(chan struct{})
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			for {
				for off := 0; off < len(renames); off += UpdateStreamBatch {
					select {
					case <-stop:
						return
					default:
					}
					end := min(off+UpdateStreamBatch, len(renames))
					if err := st.ApplyAll(renames[off:end]); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range positions {
				var err error
				if indexed {
					_, err = st.PointQuery(p)
				} else {
					_, err = st.PointQueryNaive(p)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		close(stop)
		<-writerDone
	}
}

// ShardedTieredBench measures the memory-tiered fleet: TieredDocs
// documents (cloned from TieredPoolDocs distinct pinned pool entries)
// opened under a memory budget of 1/TieredBudgetDiv of the unbounded
// fleet's initial resident bytes, then driven sequentially through the
// pinned ZipfFleet schedule. One benchmark iteration ingests the whole
// schedule, so ns/op folds in the tier's full cost — evicting cold
// documents to encoded bytes and rehydrating them when the schedule's
// tail comes back around — on top of the updates themselves.
func ShardedTieredBench(short string, docs int) func(b *testing.B) {
	pool := shardedStream(short, TieredPoolDocs)
	ids := make([]string, docs)
	streams := make([][]sltgrammar.Op, docs)
	for d := 0; d < docs; d++ {
		ids[d] = fmt.Sprintf("tier-%03d", d)
		streams[d] = pool.opss[d%TieredPoolDocs]
	}
	// The budget is pinned relative to the unbounded fleet: per pool
	// entry, what one freshly opened Store of it keeps resident.
	var unbounded int64
	for _, g := range pool.gs {
		st := store.New(g.Clone(), store.Config{Ratio: -1})
		unbounded += st.ResidentBytes() * int64(docs/TieredPoolDocs)
	}
	budget := unbounded / TieredBudgetDiv
	sched := workload.ZipfFleet(streams, TieredBatch, TieredSkew, TieredSeed)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			clones := make([]*sltgrammar.Grammar, docs)
			for d := range clones {
				clones[d] = pool.gs[d%TieredPoolDocs].Clone()
			}
			b.StartTimer()
			ss := sltgrammar.NewShardedStore(4, sltgrammar.StoreConfig{
				Ratio:        -1,
				MemoryBudget: budget,
			})
			for d, g := range clones {
				if _, err := ss.Open(ids[d], g); err != nil {
					b.Fatal(err)
				}
			}
			for _, fb := range sched {
				if err := ss.ApplyAll(ids[fb.Doc], fb.Ops); err != nil {
					b.Fatal(err)
				}
			}
			fs := ss.Stats()
			if err := ss.Close(); err != nil {
				b.Fatal(err)
			}
			if fs.Evictions == 0 {
				b.Fatal("tiered bench never evicted: budget no longer binding")
			}
		}
	}
}

// PerOpUpdateStreamBench measures the same workload through the per-op
// update path — a fresh O(|G|) ValSizes pass per operation and a
// garbage collection after every delete (the pre-Store behavior of
// update.ApplyAll).
func PerOpUpdateStreamBench(short string) func(b *testing.B) {
	g, ops := updateStream(short)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cp := g.Clone()
			b.StartTimer()
			for _, op := range ops {
				if err := update.Apply(cp, op); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
