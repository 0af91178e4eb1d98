// Command perfbench is the repository's end-to-end benchmark: it serves
// a fleet of grammar-compressed documents through sltgrammar.Serve on a
// loopback listener and drives it from the same process with
// closed-loop wire clients (a ServerClient has one request in flight,
// so each caller waits for its reply).
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
//
// A run is an unmeasured warm-up round and then a sequence of rounds,
// each on a fresh fleet: setup (every document compressed with
// TreeRePair and opened over the wire; repeated on throwaway fleets
// where one setup is short, for a steadier median), the timed write
// phase (a Zipf-skewed schedule of inverse-seeded update batches, then
// Quiesce; on readmix and coldfleet a reader runs beside the writer),
// on ingest a read phase, on coldfleet the drain, close and recovery
// of the durable fleet, and the correctness gate — every document's
// decompressed snapshot must equal its generated corpus document.
// Rounds repeat until --seconds of measuring have passed and every
// latency distribution can give its p99. Inputs are generated from
// --seed before the first round and are never timed.
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics. With --trace 1 each round is run three
// times — untraced over the wire, traced over the wire, and traced
// in-process through the store's own API (the direct pass) — and the
// JSON carries the per-layer metrics; the human-readable lines before
// it give both passes' end-to-end metrics and their difference, the
// tracing overhead. The command exits 1 when any output is wrong or
// any request failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	sltgrammar "repro"
)

// workDir holds the durable fleets, relative to the checkout root.
const workDir = ".bench_build/run"

// watchdog ends a run that has wedged, well inside the 180 s a run may
// take.
const watchdog = 170 * time.Second

// workloadSpec is one workload: its fleet, schedule and store policy.
type workloadSpec struct {
	name      string
	corpora   []string // pool entries take these round-robin
	scale     float64  // corpus scale of the generated documents
	pool      int      // distinct generated documents and streams
	docs      int      // fleet size; entryOf assigns each document a pool entry
	roundOps  int      // update ops one round's schedule applies
	streamOps int      // stream length per document; docs × streamOps = roundOps delivers each whole
	setups    int      // fleets set up (and timed) per round; the round runs on the last
	batch     int      // ops per Apply
	store     sltgrammar.StoreConfig
	durable   bool // write-ahead logged (FsyncOff), closed and reopened at the end
	tiered    bool // memory budget = 1.5 × the fleet's resident bytes compressed at its final states
	reader    bool // a second connection reads while the writer runs
	// readPhase is how many verified reads, spread evenly over the
	// documents, run on the freshly loaded documents of the last
	// throwaway setup fleet (needs setups ≥ 2).
	readPhase int
}

var workloads = []*workloadSpec{
	{
		// Writes under the policy users get by default: background
		// GrammarRePair competes with serving for the cores. Every
		// document replays its whole 400-op stream, so every document
		// crosses the recompression trigger (about 1.5 runs and 0.7 swaps
		// per document per round). A round's cost comes in lumps, one per
		// run, and whether a run swaps in or is discarded depends on how
		// the writes race it: with 8 documents of twice the size and
		// 800-op streams, a round held half as many runs, rounds differed
		// by ±20 % and ten seeds spread 0.27-0.31 on write_ops_per_s,
		// write_p50_us and cpu_us_per_op. Its reads run on the freshly
		// loaded documents, spread evenly over them: read after the
		// writes, a document is compact or degraded as its last run
		// swapped in or was discarded, and read latency followed those
		// few outcomes. The pool is three fleets deep, so a run reads 48
		// documents.
		name: "ingest", corpora: []string{"XM"}, scale: 0.04,
		pool: 48, docs: 16, roundOps: 6400, streamOps: 400, setups: 4, batch: 10,
		store:     sltgrammar.StoreConfig{Async: true},
		readPhase: 8000,
	},
	{
		// The same fleet and streams with recompression manual-only, and
		// a reader beside the writer: the read path and the write path on
		// an ever-degrading grammar, without GrammarRePair's CPU.
		name: "readmix", corpora: []string{"XM"}, scale: 0.04,
		pool: 48, docs: 16, roundOps: 6400, streamOps: 400, setups: 4, batch: 10,
		store:  sltgrammar.StoreConfig{Ratio: -1},
		reader: true,
	},
	{
		// A durable, memory-tiered fleet of small documents of every
		// compressibility: WAL, eviction, rehydration and recovery, with a
		// reader beside the writer as on readmix. The memory budget is
		// half as much again as the fleet's resident bytes compressed at
		// its final states; with recompression manual-only the grammars
		// outgrow it during each round, and the Zipf tail then cycles
		// through disk (about 0.15 evictions and 0.08 rehydrations per
		// batch); at 1× there were 0.6 evictions per batch, each closing a
		// WAL with an fsync, and at 2× none. Recompression is manual-only
		// because under the default async policy GrammarRePair runs on
		// these small documents dominated the fleet's cost (about 15 times
		// the CPU per op) and an eviction waits for the document's run,
		// which left every figure too unsteady to gate on; ingest measures
		// that policy. The WAL does not fsync on the append path: with an
		// fsync per acked batch, fsync time on a shared disk set the write
		// and read figures, and two sets of runs of the same code spread
		// by 0.25 to 0.47 of their median. Evictions, snapshots,
		// rehydrations and the drain still sync, and the correctness gate
		// runs on the fleet reopened after the drain. Batches are 40 ops,
		// so that the round trip and the tier's cost per document touched
		// are a smaller share of each write, and the pool of 48 documents
		// gives every round of a run a different fleet.
		name: "coldfleet", corpora: []string{"EW", "XM", "TB"}, scale: 0.02,
		pool: 48, docs: 128, roundOps: 20000, streamOps: 20000, setups: 1, batch: 40,
		store:   sltgrammar.StoreConfig{Ratio: -1},
		durable: true,
		tiered:  true,
		reader:  true,
	},
}

func main() {
	name := flag.String("workload", "", "workload to run: ingest, readmix or coldfleet")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	var spec *workloadSpec
	for _, w := range workloads {
		if w.name == *name {
			spec = w
		}
	}
	if spec == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest|readmix|coldfleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	bench, err := readBenchmark()
	if err != nil {
		fail(err)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v, giving up\n", watchdog)
		os.Exit(3)
	})

	g0 := time.Now()
	in, err := makeInputs(spec, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("perfbench: %s, seed %d: %d documents (%d distinct), %d ops in %d batches per round; inputs took %.2fs\n",
		spec.name, *seed, len(in.ids), len(in.pool), in.ops, len(in.rounds[0].sched), time.Since(g0).Seconds())

	measure := time.Duration(*seconds * float64(time.Second))
	var out *report
	// A first round, not measured, lets the heap grow and the caches
	// fill; its outputs are checked like every other round's.
	warm, err := runRound(spec, in, 0, *seed, true, nil)
	if err != nil {
		fail(err)
	}
	all := []*roundResult{warm}
	if *trace == 0 {
		rounds, err := runRounds(spec, in, *seed, measure)
		if err != nil {
			fail(err)
		}
		all = append(all, rounds...)
		out = endToEnd(spec, rounds)
		out.print(fmt.Sprintf("end-to-end (%d rounds)", len(rounds)))
	} else {
		var plain, traced, direct []*roundResult
		tw, td := newTracer(), newTracer()
		start := time.Now()
		for len(plain) == 0 || time.Since(start) < measure ||
			len(td.samples("store.apply")) < layerSamples || len(td.samples("navigate.point")) < layerSamples {
			for _, pass := range []struct {
				wire bool
				tr   *tracer
				dst  *[]*roundResult
			}{{true, nil, &plain}, {true, tw, &traced}, {false, td, &direct}} {
				res, err := runRound(spec, in, len(*pass.dst), *seed, pass.wire, pass.tr)
				if err != nil {
					fail(err)
				}
				*pass.dst = append(*pass.dst, res)
			}
		}
		all = append(append(append(all, plain...), traced...), direct...)
		e2e, e2eTraced := endToEnd(spec, plain), endToEnd(spec, traced)
		e2e.print(fmt.Sprintf("end-to-end, untraced (%d rounds)", len(plain)))
		e2eTraced.print(fmt.Sprintf("end-to-end, traced (%d rounds)", len(traced)))
		fmt.Println("tracing overhead (traced vs untraced)")
		for _, n := range e2e.names {
			a, b := e2e.m[n], e2eTraced.m[n]
			if a.Value != 0 {
				fmt.Printf("  %-34s %+8.2f%%\n", n, 100*(b.Value-a.Value)/a.Value)
			}
		}
		out = layerMetrics(tw, td, traced)
		out.print("per-layer")
	}

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	wrong := 0
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		wrong += r.wrong
	}
	res.Correct = wrong == 0 && res.Failed == 0
	listed := bench.EndToEnd
	if *trace == 1 {
		listed = bench.PerLayer
	}
	for _, l := range listed {
		m, ok := out.m[l.Name]
		if !ok {
			fail(fmt.Errorf("BENCHMARK.json lists %s, which this run did not measure", l.Name))
		}
		res.Metrics[l.Name] = m
	}
	fmt.Printf("correctness: %d wrong outputs, %d of %d requests failed\n", wrong, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// benchmark is the part of BENCHMARK.json, at the root of the
// checkout, that names the metrics the JSON result carries: the
// end_to_end list on untraced runs, the per_layer list on traced ones.
// Other measured metrics are printed for people only. Of the end-to-end
// ones, the p99s swung by up to 0.28 of their median between runs on
// different seeds (their tails are GC pauses, recompression stalls and
// rehydrations, which a machine busy with other work stretches), too
// far to gate on; error_rate is the result's failed/attempted; and
// recovery_s exists on coldfleet only (the traced run reports it as
// wal.recovery_ms).
type benchmark struct {
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmark() (*benchmark, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// tailSamples is the sample count a p99 needs: minBeyond above it.
const tailSamples = 100 * minBeyond

// layerSamples is the sample count a per-layer p<layerTail> needs.
const layerSamples = 100 / (100 - layerTail) * minBeyond

// runRounds runs rounds on fresh fleets until measure has passed and
// every latency distribution holds enough samples for its p99.
func runRounds(spec *workloadSpec, in *inputs, seed int64, measure time.Duration) ([]*roundResult, error) {
	var out []*roundResult
	var writes, reads int
	start := time.Now()
	for len(out) == 0 || time.Since(start) < measure || writes < tailSamples || reads < tailSamples {
		r, err := runRound(spec, in, len(out), seed, true, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		writes += len(r.writes)
		reads += len(r.reads)
	}
	return out, nil
}

// endToEnd folds rounds into the end-to-end metrics. Setup is the
// median round, so one round disturbed by the machine does not move it.
// Throughput and CPU per op are totals over all rounds: their cost
// comes in lumps (a background GrammarRePair run costs as much as
// hundreds of updates), which sums average and medians do not.
// Percentiles are over every sample of every round.
func endToEnd(spec *workloadSpec, rounds []*roundResult) *report {
	var setups, space, recov []float64
	var writes, reads samples
	var attempted, failed, ops int
	var write, cpu float64
	for _, r := range rounds {
		setups = append(setups, r.setups...)
		space = append(space, r.space...)
		recov = append(recov, r.recovery)
		writes = append(writes, r.writes...)
		reads = append(reads, r.reads...)
		attempted += r.attempted
		failed += r.failed
		ops += r.ops
		write += r.write
		cpu += r.cpu
	}
	out := newReport()
	out.set("setup_s", median(setups), "s")
	out.set("write_ops_per_s", float64(ops)/write, "1/s")
	p50, _ := writes.percentile(50)
	out.setN("write_p50_us", p50, "us", len(writes))
	out.setTail("write", writes, 99)
	p50, _ = reads.percentile(50)
	out.setN("read_p50_us", p50, "us", len(reads))
	out.setTail("read", reads, 99)
	out.set("space_ratio", mean(space), "ratio")
	out.set("cpu_us_per_op", cpu/float64(ops)*1e6, "us")
	out.set("error_rate", float64(failed)/float64(attempted), "ratio")
	if spec.durable {
		out.set("recovery_s", median(recov), "s")
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
