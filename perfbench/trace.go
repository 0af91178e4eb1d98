package main

import (
	"bytes"
	"time"

	sltgrammar "repro"
	"repro/internal/update"
)

// tracer records, on a traced pass, spans around the benchmark's own
// calls into each layer's public functions and the layers' public
// counters. Nothing inside the program is instrumented. A nil *tracer
// records nothing, so untraced passes run the same code.
type tracer struct {
	spans  map[string]*samples
	counts map[string]float64
	// Per-checkpoint samples, read outside any span.
	resident []float64 // fleet resident bytes
	heap     []float64 // Go heap in use
	gcs      uint32    // Go GC cycles over the write phases
	gc0      uint32
}

func newTracer() *tracer {
	return &tracer{spans: map[string]*samples{}, counts: map[string]float64{}}
}

func (t *tracer) span(name string, start time.Time) {
	if t != nil {
		t.series(name).add(time.Since(start))
	}
}

// series returns the samples of span name, creating them empty.
func (t *tracer) series(name string) *samples {
	s := t.spans[name]
	if s == nil {
		s = &samples{}
		t.spans[name] = s
	}
	return s
}

func (t *tracer) samples(name string) samples {
	if s := t.spans[name]; s != nil {
		return *s
	}
	return nil
}

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// merge folds the spans of o, recorded beside t's by another
// goroutine, into t.
func (t *tracer) merge(o *tracer) {
	if t == nil {
		return
	}
	for name, s := range o.spans {
		*t.series(name) = append(*t.series(name), *s...)
	}
}

// codec times the op codec on the batch about to be sent: the encoding
// the client puts on the wire (and the WAL journals) and its decoding.
func (t *tracer) codec(id string, ops []sltgrammar.Op) {
	t0 := time.Now()
	buf, err := update.AppendOps(nil, ops)
	if err != nil {
		return
	}
	t.span("update.encode", t0)
	t0 = time.Now()
	if _, _, err := update.DecodeOps(buf); err != nil {
		return
	}
	t.span("update.decode", t0)
	t.count("server.req_bytes", float64(codecBytes(id, buf)))
	t.count("server.req_batches", 1)
}

// encode times the grammar codec's encoder on g and returns the
// encoding (nil if it failed).
func (t *tracer) encode(g *sltgrammar.Grammar) []byte {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := sltgrammar.EncodeGrammar(&buf, g); err != nil {
		return nil
	}
	t.span("grammar.encode", t0)
	t.count("grammar.encode_edges", float64(g.Size()))
	return buf.Bytes()
}

// decode decodes raw, an encoded grammar, timing the decoder when t is
// not nil.
func (t *tracer) decode(raw []byte) (*sltgrammar.Grammar, error) {
	t0 := time.Now()
	g, err := sltgrammar.DecodeGrammar(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if t != nil {
		t.span("grammar.decode", t0)
		t.count("grammar.decode_edges", float64(g.Size()))
		t.count("grammar.bytes", float64(len(raw)))
	}
	return g, nil
}

// beginWrite marks the start of a write phase.
func (t *tracer) beginWrite() {
	_, t.gc0 = heapStats()
}

// checkpoint samples the runtime and the fleet-wide gauges at one of
// the schedule's evenly spaced points. It reads no document's grammar:
// a snapshot would pin the published generation, and the writer's next
// batch on that document would pay for a clone.
func (t *tracer) checkpoint(f *fleet) {
	inuse, _ := heapStats()
	t.heap = append(t.heap, inuse)
	t.resident = append(t.resident, float64(f.ss.Stats().ResidentBytes))
}

// study runs, after the write phase has quiesced, GrammarRePair on the
// hottest document's snapshot and round-trips it through the grammar
// codec. Unbounded fleets only, where reading a document never
// rehydrates it.
func (t *tracer) study(f *fleet) {
	g, err := f.ss.Snapshot(f.in.ids[0])
	if err != nil {
		return
	}
	t0 := time.Now()
	g2, _ := sltgrammar.Recompress(g)
	t.span("core.recompress", t0)
	t.count("core.shrink_before", float64(g.Size()))
	t.count("core.shrink_after", float64(g2.Size()))
	if raw := t.encode(g); raw != nil {
		t.decode(raw)
	}
}

// fleetStats reads the fleet's counters at the end of the write phase.
// Per-document Store counters are summed only on unbounded fleets,
// where reading them rehydrates nothing.
func (t *tracer) fleetStats(f *fleet, durable bool) {
	_, gcs := heapStats()
	t.gcs += gcs - t.gc0
	fs := f.ss.Stats()
	for name, v := range map[string]int64{
		"stall_ns":       fs.StallNanos,
		"refolds":        fs.Refolds,
		"refolded_nodes": fs.RefoldedNodes,
		"recompressions": fs.Recompressions,
		"async":          fs.AsyncRecompressions,
		"discarded":      fs.DiscardedRecompressions,
		"tail_ops":       fs.ReplayedTailOps,
		"cost_triggered": fs.CostRecompressions,
		"deferred":       fs.DeferredRecompressions,
		"wal_bytes":      fs.WALBytes,
		"wal_syncs":      fs.WALSyncs,
		"fsync_ns":       fs.FsyncNanos,
		"wal_snapshots":  fs.Snapshots,
		"evictions":      fs.Evictions,
		"hydrations":     fs.Hydrations,
	} {
		t.count("fleet."+name, float64(v))
	}
	if durable {
		return
	}
	for _, id := range f.in.ids {
		st, ok := f.ss.Get(id)
		if !ok {
			continue
		}
		ds := st.Stats()
		t.count("doc.count", 1)
		if ds.Recompressions+ds.DiscardedRecompressions > 0 {
			t.count("doc.with_run", 1)
		}
		for name, v := range map[string]int64{
			"gc_runs":         ds.GCRuns,
			"rules_collected": ds.RulesCollected,
			"size_misses":     ds.SizeCacheMisses,
			"usage_hits":      ds.UsageCacheHits,
			"usage_misses":    ds.UsageCacheMisses,
			"steps":           ds.IsolationSteps,
			"jumps":           ds.IsolationJumps,
			"spine_nodes":     int64(ds.SpineNodes),
		} {
			t.count("doc."+name, float64(v))
		}
	}
}

// recovered reads the recovery counters of a reopened durable fleet.
func (t *tracer) recovered(f *fleet, took time.Duration) {
	fs := f.ss.Stats()
	t.count("wal.recovered_ops", float64(fs.RecoveredOps))
	t.count("wal.truncated_records", float64(fs.TruncatedTailRecords))
	t.count("wal.recoveries", 1)
	t.count("wal.recovery_s", took.Seconds())
}

// layerTail is the tail percentile of per-layer spans. A traced run
// makes a third of the rounds of an untraced one on each pass, too few
// for a p99 with minBeyond samples above it.
const layerTail = 95

// layerMetrics derives the per-layer metrics from the traced wire pass
// (tw, over the rounds traced) and the direct pass (td). Counters are
// normalized by the ops and batches the schedule applied: the store's
// own Ops also counts the WAL tails replayed when a document rehydrates.
func layerMetrics(tw, td *tracer, traced []*roundResult) *report {
	r := newReport()
	c := tw.counts
	rounds := len(traced)
	var ops, batches float64
	for _, rr := range traced {
		ops += float64(rr.ops)
		batches += float64(rr.batches)
	}
	per := func(num, den, scale float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den * scale
	}
	p50 := func(s samples) float64 { v, _ := s.percentile(50); return v }
	diff := func(a, b samples) float64 {
		if len(a) == 0 || len(b) == 0 {
			return 0
		}
		return p50(a) - p50(b)
	}

	r.set("server.apply_self_p50_us", diff(tw.samples("server.apply"), td.samples("store.apply")), "us")
	r.set("server.read_self_p50_us", diff(tw.samples("server.point"), td.samples("navigate.point")), "us")
	r.set("server.req_bytes_per_batch", per(c["server.req_bytes"], c["server.req_batches"], 1), "bytes")
	r.set("update.encode_us_per_batch", mean(tw.samples("update.encode")), "us")
	r.set("update.decode_us_per_batch", mean(tw.samples("update.decode")), "us")

	apply := td.samples("store.apply")
	r.set("store.apply_p50_us", p50(apply), "us")
	r.setTail("store.apply", apply, layerTail)
	r.set("store.gc_runs_per_batch", per(c["doc.gc_runs"], batches, 1), "count")
	r.set("store.rules_collected_per_batch", per(c["doc.rules_collected"], batches, 1), "count")
	r.set("store.size_cache_miss_per_kop", per(c["doc.size_misses"], ops, 1000), "count")
	r.set("store.stall_ms_per_kop", per(c["fleet.stall_ns"]/1e6, ops, 1000), "ms")
	r.set("store.usage_cache_hit_ratio", per(c["doc.usage_hits"], c["doc.usage_hits"]+c["doc.usage_misses"], 1), "ratio")
	r.set("store.refolds_per_kop", per(c["fleet.refolds"], ops, 1000), "count")
	r.set("store.refolded_nodes_per_kop", per(c["fleet.refolded_nodes"], ops, 1000), "count")

	runs := c["fleet.recompressions"] + c["fleet.discarded"]
	r.set("core.runs_per_kop", per(runs, ops, 1000), "count")
	r.set("core.swap_ratio", per(c["fleet.recompressions"], runs, 1), "ratio")
	r.set("core.runs_per_doc", per(runs, c["doc.count"], 1), "count")
	r.set("core.docs_with_run_share", per(c["doc.with_run"], c["doc.count"], 1), "ratio")
	r.set("core.tail_ops_per_run", per(c["fleet.tail_ops"], c["fleet.async"], 1), "count")
	r.set("core.cost_triggered", per(c["fleet.cost_triggered"], float64(rounds), 1), "count")
	r.set("core.deferred", per(c["fleet.deferred"], float64(rounds), 1), "count")
	r.set("core.recompress_ms", mean(tw.samples("core.recompress"))/1e3, "ms")
	r.set("core.shrink", per(c["core.shrink_before"], c["core.shrink_after"], 1), "ratio")

	r.set("isolate.steps_per_op", per(c["doc.steps"], ops, 1), "count")
	r.set("isolate.jumps_per_op", per(c["doc.jumps"], ops, 1), "count")
	r.set("isolate.spine_nodes", per(c["doc.spine_nodes"], float64(rounds), 1), "count")

	point := td.samples("navigate.point")
	r.set("navigate.point_p50_us", p50(point), "us")
	r.setTail("navigate.point", point, layerTail)
	r.set("navigate.count_p50_us", p50(td.samples("navigate.count")), "us")

	enc, dec := tw.samples("grammar.encode"), tw.samples("grammar.decode")
	r.set("grammar.encode_us_per_kedge", per(sum(enc), c["grammar.encode_edges"], 1000), "us")
	r.set("grammar.decode_us_per_kedge", per(sum(dec), c["grammar.decode_edges"], 1000), "us")
	r.set("grammar.bytes_per_edge", per(c["grammar.bytes"], c["grammar.decode_edges"], 1), "bytes")
	r.set("treerepair.compress_ms_per_kedge", per(sum(tw.samples("treerepair.compress"))/1e3, c["treerepair.doc_edges"], 1000), "ms")

	r.set("wal.bytes_per_op", per(c["fleet.wal_bytes"], ops, 1), "bytes")
	r.set("wal.fsyncs_per_batch", per(c["fleet.wal_syncs"], batches, 1), "count")
	r.set("wal.fsync_us", per(c["fleet.fsync_ns"]/1e3, c["fleet.wal_syncs"], 1), "us")
	r.set("wal.snapshots_per_kop", per(c["fleet.wal_snapshots"], ops, 1000), "count")
	r.set("wal.recovered_ops", per(c["wal.recovered_ops"], c["wal.recoveries"], 1), "count")
	r.set("wal.truncated_records", per(c["wal.truncated_records"], c["wal.recoveries"], 1), "count")
	r.set("wal.recovery_ms", per(c["wal.recovery_s"]*1e3, c["wal.recoveries"], 1), "ms")

	r.set("tier.evictions_per_kbatch", per(c["fleet.evictions"], batches, 1000), "count")
	r.set("tier.hydrations_per_kbatch", per(c["fleet.hydrations"], batches, 1000), "count")
	r.set("tier.resident_mb", mean(tw.resident)/(1<<20), "MB")
	r.set("go.gc_cycles_per_kop", per(float64(tw.gcs), ops, 1000), "count")
	r.set("go.heap_inuse_mb", mean(tw.heap)/(1<<20), "MB")
	return r
}
