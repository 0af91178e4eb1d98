// Benchmarks regenerating the paper's tables and figures (DESIGN.md §6).
// Each benchmark wraps the corresponding experiments.* driver at a
// reduced scale so `go test -bench=.` terminates in minutes; use
// cmd/benchtables for full-scale runs and EXPERIMENTS.md for recorded
// results.
package sltgrammar_test

import (
	"fmt"
	"io"
	"testing"

	sltgrammar "repro"
	"repro/internal/benchsuite"
	"repro/internal/datasets"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// benchCfg is the reduced-scale configuration for testing.B runs.
func benchCfg() experiments.Config {
	cfg := experiments.Default(io.Discard)
	cfg.Scale = 0.08
	cfg.Updates = 300
	cfg.Batch = 100
	cfg.Renames = 60
	cfg.GnMin = 4
	cfg.GnMax = 9
	return cfg
}

// BenchmarkTable3 regenerates Table III (document statistics and
// GrammarRePair compression ratios for all six corpora).
func BenchmarkTable3(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Table3(cfg)
	}
}

// BenchmarkStaticCompression regenerates the §V-B comparison of
// TreeRePair, GrammarRePair-on-trees and GrammarRePair-on-grammars.
func BenchmarkStaticCompression(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Static(cfg)
	}
}

// BenchmarkFig2Blowup regenerates Fig. 2 (blow-up while recompressing
// each corpus grammar).
func BenchmarkFig2Blowup(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig2(cfg)
	}
}

// BenchmarkFig3Optimization regenerates Fig. 3 (optimized vs
// non-optimized replacement on the Gn family).
func BenchmarkFig3Optimization(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig3(cfg)
	}
}

// BenchmarkFig4Moderate regenerates Fig. 4 (update sequences on the
// moderately compressing corpora XM/MD/TB).
func BenchmarkFig4Moderate(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DynamicAll(cfg, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Extreme regenerates Fig. 5 (update sequences on the
// exponentially compressing corpora EW/ET/NC).
func BenchmarkFig5Extreme(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DynamicAll(cfg, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Runtimes regenerates Fig. 6 plus the §V-C space
// comparison (recompression after random renames).
func BenchmarkFig6Runtimes(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpace isolates the §V-C space claim on one corpus: peak
// GrammarRePair footprint vs udc's decompressed tree.
func BenchmarkSpace(b *testing.B) {
	cfg := benchCfg()
	cfg.Renames = 40
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.SpaceGrammarRP >= r.SpaceUDC {
				b.Fatalf("%s: space claim violated", r.Name)
			}
		}
	}
}

// Micro-benchmarks of the core operations, per corpus regime.

func BenchmarkCompressTreeRePair(b *testing.B) {
	for _, short := range benchsuite.MicroShorts {
		c, _ := datasets.ByShort(short)
		b.Run(c.Name, benchsuite.CompressBench(short))
	}
}

func BenchmarkRecompressGrammarRePair(b *testing.B) {
	for _, short := range benchsuite.MicroShorts {
		c, _ := datasets.ByShort(short)
		b.Run(c.Name, benchsuite.RecompressBench(short))
	}
}

// BenchmarkPrune measures the pruning phase alone on the grammar
// recompression hands to it; see benchsuite.PruneBench.
func BenchmarkPrune(b *testing.B) {
	for _, short := range benchsuite.MicroShorts {
		c, _ := datasets.ByShort(short)
		b.Run(c.Name, benchsuite.PruneBench(short))
	}
}

// BenchmarkStoreUpdateStream measures the Store update path (cached size
// vectors, one GC per batch) against BenchmarkPerOpUpdateStream on the
// identical pinned workload; the ratio is the update-serving speedup
// recorded in BENCH_<n>.json.
func BenchmarkStoreUpdateStream(b *testing.B) {
	for _, short := range benchsuite.MicroShorts {
		c, _ := datasets.ByShort(short)
		b.Run(c.Name, benchsuite.StoreUpdateStreamBench(short))
	}
}

// BenchmarkStoreUpdateStreamDurable is the same workload through a
// durable Store: WAL-encode + append (and under fsync=batch, an fsync)
// per acked batch. The delta against BenchmarkStoreUpdateStream is the
// durability overhead recorded in BENCH_<n>.json.
func BenchmarkStoreUpdateStreamDurable(b *testing.B) {
	for _, short := range benchsuite.MicroShorts {
		c, _ := datasets.ByShort(short)
		for _, m := range benchsuite.DurableFsyncModes {
			b.Run(c.Name+"/fsync="+m.Name, benchsuite.StoreUpdateStreamDurableBench(short, m.Fsync))
		}
	}
}

// BenchmarkStoreReadStream measures serving one read (zero-copy cursor
// + label count over a pinned generation) while a background writer
// ingests continuously; see benchsuite.StoreReadStreamBench.
func BenchmarkStoreReadStream(b *testing.B) {
	for _, short := range benchsuite.MicroShorts {
		c, _ := datasets.ByShort(short)
		b.Run(c.Name, benchsuite.StoreReadStreamBench(short))
	}
}

// BenchmarkStorePointQuery measures random indexed point lookups
// (preorder seeks through the generation's spine view) on a degraded
// grammar under a streaming writer, with the naive size-vector descent
// as the in-record baseline; see benchsuite.StorePointQueryBench.
func BenchmarkStorePointQuery(b *testing.B) {
	for _, short := range benchsuite.MicroShorts {
		c, _ := datasets.ByShort(short)
		b.Run(c.Name, benchsuite.StorePointQueryBench(short, true))
		b.Run(c.Name+"/naive", benchsuite.StorePointQueryBench(short, false))
	}
}

// BenchmarkShardedTiered measures a 256-document fleet under a memory
// budget a quarter of its unbounded resident footprint, driven by the
// pinned Zipf schedule; ns/op includes evictions and rehydrations.
func BenchmarkShardedTiered(b *testing.B) {
	b.Run(fmt.Sprintf("XM/docs=%d", benchsuite.TieredDocs),
		benchsuite.ShardedTieredBench("XM", benchsuite.TieredDocs))
}

// BenchmarkServeStream measures the same multi-document streams served
// over the network front-end (sltgrammar.Serve + wire clients): one op
// replays the pinned Zipf schedule through ServeConns connections, and
// the client-observed batch latency distribution is reported as
// p50-ns / p99-ns extra metrics; see benchsuite.ServeStreamBench.
func BenchmarkServeStream(b *testing.B) {
	for _, short := range benchsuite.MicroShorts {
		c, _ := datasets.ByShort(short)
		b.Run(fmt.Sprintf("%s/conns=%d", c.Name, benchsuite.ServeConns),
			benchsuite.ServeStreamBench(short))
	}
}

// BenchmarkPerOpUpdateStream is the baseline: a fresh ValSizes pass per
// operation and a garbage collection after every delete.
func BenchmarkPerOpUpdateStream(b *testing.B) {
	for _, short := range benchsuite.MicroShorts {
		c, _ := datasets.ByShort(short)
		b.Run(c.Name, benchsuite.PerOpUpdateStreamBench(short))
	}
}

// BenchmarkUpdateStreamSharded measures aggregate multi-document
// ingestion through a ShardedStore across shard counts; one op ingests
// every document's full pinned stream (see benchsuite for the fixture).
func BenchmarkUpdateStreamSharded(b *testing.B) {
	for _, shards := range benchsuite.ShardedShardCounts {
		b.Run(fmt.Sprintf("XM/docs=%d/shards=%d", benchsuite.ShardedDocs, shards),
			benchsuite.ShardedUpdateStreamBench("XM", shards, benchsuite.ShardedDocs))
	}
}

func BenchmarkUpdateRename(b *testing.B) {
	c, _ := datasets.ByShort("XM")
	u := c.Generate(0.08, 1)
	doc := sltgrammar.Encode(u)
	g, _ := sltgrammar.Compress(doc)
	ops := workload.Renames(doc, 1000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := g.Clone()
		b.StartTimer()
		if err := sltgrammar.Apply(cp, ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
}

func BenchmarkPathIsolationViaRename(b *testing.B) {
	// Isolation on an exponentially compressed grammar: the whole point
	// of Lemma 1 is that this is O(|G|), not O(tree).
	c, _ := datasets.ByShort("NC")
	u := c.Generate(0.05, 1)
	doc := sltgrammar.Encode(u)
	g, _ := sltgrammar.Compress(doc)
	ops := workload.Renames(doc, 200, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp := g.Clone()
		if err := sltgrammar.Apply(cp, ops[i%len(ops)]); err != nil {
			b.Fatal(err)
		}
	}
}
