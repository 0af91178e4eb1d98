// Command benchtables regenerates every table and figure of the paper's
// evaluation section on the synthetic corpora (see DESIGN.md §6 for the
// experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	benchtables -all                 # everything, paper order
//	benchtables -table3 -fig2        # individual artifacts
//	benchtables -fig4 -updates 2000  # dynamic experiment, shorter run
//	benchtables -scale 0.5           # half-size corpora
//	benchtables -json 1 -scale 0.08  # machine-readable perf record BENCH_1.json
//	benchtables -json 1 -bench '^ServeStream/'  # record only the matching benchmarks
//	benchtables -list                # names of the -json suite's benchmarks
//
// To record a baseline beside a candidate for the drift gate, use
// cmd/benchpair, which runs this command's -json pass from both trees.
//
// Profiling (see PERF.md for the workflow):
//
//	benchtables -json 0 -fig6 -cpuprofile cpu.out   # profile an experiment
//	benchtables -json 8 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/benchrec"
	"repro/internal/benchsuite"
	"repro/internal/experiments"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment in paper order")
		table3   = flag.Bool("table3", false, "Table III: document statistics and compression ratios")
		static_  = flag.Bool("static", false, "§V-B: TreeRePair vs GrammarRePair comparison")
		fig2     = flag.Bool("fig2", false, "Fig. 2: blow-up during grammar recompression")
		fig3     = flag.Bool("fig3", false, "Fig. 3: effect of the optimization (Gn family)")
		fig4     = flag.Bool("fig4", false, "Fig. 4: updates on moderately compressing corpora")
		fig5     = flag.Bool("fig5", false, "Fig. 5: updates on exponentially compressing corpora")
		fig6     = flag.Bool("fig6", false, "Fig. 6: recompression runtimes + §V-C space")
		ablation = flag.Bool("ablation", false, "ablation: k_in sweep and optimization toggle")

		scale   = flag.Float64("scale", 1.0, "corpus scale multiplier (1.0 = laptop defaults)")
		seed    = flag.Int64("seed", 20160516, "RNG seed for corpora and workloads")
		updates = flag.Int("updates", 4000, "number of update operations for Figs. 4/5")
		batch   = flag.Int("batch", 100, "recompression interval for Figs. 4/5")
		renames = flag.Int("renames", 300, "number of renames for Fig. 6")
		gnMin   = flag.Int("gnmin", 4, "smallest Gn exponent for Fig. 3")
		gnMax   = flag.Int("gnmax", 12, "largest Gn exponent for Fig. 3")

		jsonN = flag.Int("json", 0, "write BENCH_<n>.json with ns/op, B/op and allocs/op per benchmark (0 = off)")
		best  = flag.Int("best", 1, "with -json: run the suite N times and record each benchmark's fastest run (noise floor on loaded machines)")
		bench = flag.String("bench", "", "with -json: run only the benchmarks whose name matches this regular expression")
		list  = flag.Bool("list", false, "print the names of the -json suite's benchmarks and exit")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()

	// Profiles cover the whole run — experiments or the -json suite —
	// and are written on normal completion (a failed run leaves a
	// truncated CPU profile behind, which pprof still reads up to the
	// failure point).
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settled heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
			}
		}()
	}

	cfg := experiments.Default(os.Stdout)
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Updates = *updates
	cfg.Batch = *batch
	cfg.Renames = *renames
	cfg.GnMin = *gnMin
	cfg.GnMax = *gnMax

	if *list {
		suite(cfg, func(name string, _ func() func(*testing.B)) { fmt.Println(name) })
		return
	}
	if *jsonN > 0 {
		if *best < 1 {
			*best = 1
		}
		filter, err := regexp.Compile(*bench)
		if err != nil {
			fail(err)
		}
		if err := writeBenchJSON(*jsonN, *best, filter, cfg); err != nil {
			fail(err)
		}
		return
	}

	if *all {
		if err := experiments.All(cfg); err != nil {
			fail(err)
		}
		return
	}
	ran := false
	sep := func() {
		if ran {
			fmt.Println()
		}
		ran = true
	}
	if *table3 {
		sep()
		experiments.Table3(cfg)
	}
	if *static_ {
		sep()
		experiments.Static(cfg)
	}
	if *fig2 {
		sep()
		experiments.Fig2(cfg)
	}
	if *fig3 {
		sep()
		experiments.Fig3(cfg)
	}
	if *fig4 {
		sep()
		if _, err := experiments.DynamicAll(cfg, true); err != nil {
			fail(err)
		}
	}
	if *fig5 {
		sep()
		if _, err := experiments.DynamicAll(cfg, false); err != nil {
			fail(err)
		}
	}
	if *fig6 {
		sep()
		if _, err := experiments.Fig6(cfg); err != nil {
			fail(err)
		}
	}
	if *ablation {
		sep()
		experiments.Ablation(cfg)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtables:", err)
	os.Exit(1)
}

// writeBenchJSON runs the benchmark suite at the configured scale via
// testing.Benchmark and writes BENCH_<n>.json in the current directory.
// With best > 1 the whole suite runs that many times and each
// benchmark's fastest (lowest ns/op) run is recorded: on a shared or
// single-core machine a single sample carries scheduler noise well past
// the drift gate's tolerance, and the minimum is the standard estimator
// for the code's actual cost under that noise. Comparing records only
// makes sense when both sides used the same -best. When the host's
// speed drifts between stretches of minutes, records taken one after
// the other still disagree; cmd/benchpair records a baseline and a
// candidate from interleaved runs instead, one benchmark at a time
// through filter. Only benchmarks whose name filter matches are built
// and run; a filter that matches none is an error.
func writeBenchJSON(n, best int, filter *regexp.Regexp, cfg experiments.Config) error {
	quiet := cfg
	quiet.Out = nil
	rec := benchrec.Record{
		Date:           time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		Scale:          quiet.Scale,
		MicroScale:     benchsuite.MicroScale,
		ExperimentSeed: quiet.Seed,
		CorpusSeed:     benchsuite.CorpusSeed,
		RenameSeed:     benchsuite.RenameSeed,
	}
	if best > 1 {
		rec.BestOf = best
	}
	pass := 0
	add := func(name string, mk func() func(b *testing.B)) {
		if !filter.MatchString(name) {
			return
		}
		fmt.Fprintf(os.Stderr, "benchtables: running %s...\n", name)
		r := testing.Benchmark(mk())
		e := benchrec.Entry{
			Name:        name,
			Runs:        r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			P50Ns:       r.Extra["p50-ns"],
			P99Ns:       r.Extra["p99-ns"],
		}
		if pass > 0 {
			for i := range rec.Benchmarks {
				if rec.Benchmarks[i].Name == name {
					if e.NsPerOp < rec.Benchmarks[i].NsPerOp {
						rec.Benchmarks[i] = e
					}
					return
				}
			}
		}
		rec.Benchmarks = append(rec.Benchmarks, e)
	}

	for ; pass < best; pass++ {
		if best > 1 {
			fmt.Fprintf(os.Stderr, "benchtables: suite pass %d/%d\n", pass+1, best)
		}
		suite(quiet, add)
	}

	if len(rec.Benchmarks) == 0 {
		return fmt.Errorf("-bench %q matches no benchmark (see -list)", filter)
	}
	path := fmt.Sprintf("BENCH_%d.json", n)
	if err := rec.Write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchtables: wrote %s (%d benchmarks)\n", path, len(rec.Benchmarks))
	return nil
}

// suite enumerates every benchmark of the BENCH record in order through
// add — one call per name, repeated per -best pass. Each benchmark comes
// as a constructor, so inputs are built only for the benchmarks add runs.
func suite(quiet experiments.Config, add func(string, func() func(b *testing.B))) {
	add("Table3", func() func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.Table3(quiet)
			}
		}
	})
	add("StaticCompression", func() func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.Static(quiet)
			}
		}
	})
	for _, short := range benchsuite.MicroShorts {
		add("CompressTreeRePair/"+short, func() func(*testing.B) { return benchsuite.CompressBench(short) })
	}
	for _, short := range benchsuite.MicroShorts {
		add("RecompressGrammarRePair/"+short, func() func(*testing.B) { return benchsuite.RecompressBench(short) })
	}
	for _, short := range benchsuite.MicroShorts {
		add("Prune/"+short, func() func(*testing.B) { return benchsuite.PruneBench(short) })
	}
	for _, short := range benchsuite.MicroShorts {
		add("StoreUpdateStream/"+short, func() func(*testing.B) { return benchsuite.StoreUpdateStreamBench(short) })
	}
	for _, short := range benchsuite.MicroShorts {
		add("PerOpUpdateStream/"+short, func() func(*testing.B) { return benchsuite.PerOpUpdateStreamBench(short) })
	}
	for _, short := range benchsuite.MicroShorts {
		for _, m := range benchsuite.DurableFsyncModes {
			add(fmt.Sprintf("StoreUpdateStreamDurable/%s/fsync=%s", short, m.Name),
				func() func(*testing.B) { return benchsuite.StoreUpdateStreamDurableBench(short, m.Fsync) })
		}
	}
	for _, shards := range benchsuite.ShardedShardCounts {
		add(fmt.Sprintf("UpdateStreamSharded/XM/docs=%d/shards=%d", benchsuite.ShardedDocs, shards),
			func() func(*testing.B) {
				return benchsuite.ShardedUpdateStreamBench("XM", shards, benchsuite.ShardedDocs)
			})
	}
	for _, short := range benchsuite.MicroShorts {
		add("StoreReadStream/"+short, func() func(*testing.B) { return benchsuite.StoreReadStreamBench(short) })
	}
	for _, short := range benchsuite.MicroShorts {
		add("StorePointQuery/"+short, func() func(*testing.B) { return benchsuite.StorePointQueryBench(short, true) })
	}
	for _, short := range benchsuite.MicroShorts {
		add("StorePointQueryNaive/"+short, func() func(*testing.B) { return benchsuite.StorePointQueryBench(short, false) })
	}
	add(fmt.Sprintf("ShardedTiered/XM/docs=%d", benchsuite.TieredDocs),
		func() func(*testing.B) { return benchsuite.ShardedTieredBench("XM", benchsuite.TieredDocs) })
	for _, short := range benchsuite.MicroShorts {
		add(fmt.Sprintf("ServeStream/%s/conns=%d", short, benchsuite.ServeConns),
			func() func(*testing.B) { return benchsuite.ServeStreamBench(short) })
	}
}
