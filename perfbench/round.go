package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	sltgrammar "repro"
	"repro/internal/grammar"
	"repro/internal/server"
	"repro/internal/xmltree"
)

// callTimeout bounds every wire call: a wedged server fails the call
// (counted) instead of hanging the run.
const callTimeout = 20 * time.Second

// conns is how many connections a fleet serves: the writer's, and a
// second one for the concurrent reader and for the read phase.
// Two is nproc on the machine the benchmark was tuned on.
const conns = 2

// checkpoints is how many evenly spaced points of the schedule sample
// the fleet's size (one more sample follows the final quiesce).
const checkpoints = 10

// fleetAPI is the surface a pass drives: a wire client, or the
// in-process store itself on the traced run's direct pass.
type fleetAPI interface {
	Open(id string, g *sltgrammar.Grammar) error
	Apply(id string, ops []sltgrammar.Op) error
	PointQuery(id string, pre int64) (string, error)
	CountLabel(id, label string) (float64, error)
	Quiesce() error
}

// direct adapts the in-process store to fleetAPI.
type direct struct{ ss *sltgrammar.ShardedStore }

func (d direct) Open(id string, g *sltgrammar.Grammar) error {
	_, err := d.ss.Open(id, g)
	return err
}
func (d direct) Apply(id string, ops []sltgrammar.Op) error { return d.ss.ApplyAll(id, ops) }
func (d direct) PointQuery(id string, pre int64) (string, error) {
	return d.ss.PointQuery(id, pre)
}
func (d direct) CountLabel(id, label string) (float64, error) { return d.ss.CountLabel(id, label) }
func (d direct) Quiesce() error                               { d.ss.Quiesce(); return nil }

// fleet is one round's serving stack: the store, and on wire passes the
// loopback server plus one client per connection.
type fleet struct {
	spec  *workloadSpec
	in    *inputs
	wire  bool
	dir   string
	ss    *sltgrammar.ShardedStore
	srv   *sltgrammar.Server
	conns []*sltgrammar.ServerClient
}

func (f *fleet) config() sltgrammar.StoreConfig {
	cfg := f.spec.store
	cfg.MemoryBudget = f.in.budget
	if f.spec.durable {
		cfg.Durability = &sltgrammar.Durability{Dir: f.dir, Fsync: sltgrammar.FsyncOff}
	}
	return cfg
}

// open opens the store, recovering it from f.dir when durable.
func (f *fleet) open() error {
	if !f.spec.durable {
		f.ss = sltgrammar.NewShardedStore(0, f.config())
		return nil
	}
	var err error
	f.ss, err = sltgrammar.OpenShardedStore(0, f.config())
	return err
}

// serve starts, on wire passes, a loopback server over the store and
// dials nconns connections to it.
func (f *fleet) serve(nconns int) error {
	if !f.wire {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.srv = sltgrammar.Serve(ln, f.ss)
	f.conns = nil
	for i := 0; i < nconns; i++ {
		cl, err := sltgrammar.DialServer(f.srv.Addr().String())
		if err != nil {
			return err
		}
		cl.SetTimeout(callTimeout)
		f.conns = append(f.conns, cl)
	}
	return nil
}

func (f *fleet) api(i int) fleetAPI {
	if f.wire {
		return f.conns[i]
	}
	return direct{f.ss}
}

// snapshot fetches document id's current grammar the way the pass
// reads: over the wire (encoded, then decoded here) or in-process.
func (f *fleet) snapshot(id string, tr *tracer) (*grammar.Grammar, error) {
	if !f.wire {
		return f.ss.Snapshot(id)
	}
	raw, err := f.conns[0].SnapshotBytes(id)
	if err != nil {
		return nil, err
	}
	return tr.decode(raw)
}

// stop drains the server (every acked batch synced) and closes the
// store.
func (f *fleet) stop() error {
	var err error
	if f.srv != nil {
		for _, cl := range f.conns {
			cl.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		err = f.srv.Drain(ctx)
		cancel()
		f.srv = nil
	}
	if cerr := f.ss.Close(); err == nil {
		err = cerr
	}
	f.ss = nil
	return err
}

// roundResult is what one round measured.
type roundResult struct {
	setups    []float64 // s, one per fleet set up
	write     float64   // s, first Apply until quiesced
	cpu       float64   // s of process CPU over the write phase
	ops       int
	batches   int
	writes    samples
	reads     samples
	space     []float64
	recovery  float64 // s
	attempted int
	failed    int
	wrong     int // outputs that contradict the reference
	broken    map[string]bool
}

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runRound runs one round of the workload on a fresh fleet: setup
// (with the read phase on the last throwaway fleet), the timed write
// phase (with the concurrent reader on readmix and coldfleet) up to
// quiesce, on coldfleet the drain, close and recovery of the fleet,
// and the correctness check. tr is nil on untraced passes.
func runRound(spec *workloadSpec, in *inputs, round int, seed int64, wire bool, tr *tracer) (*roundResult, error) {
	ri := in.rounds[round%len(in.rounds)]
	res := &roundResult{}
	docs := in.startDocs(ri)

	// Setup, spec.setups times, each on a fresh fleet; the round runs on
	// the last one. The fleets before it are closed unused, but for the
	// read phase, which runs on the last of them: the same freshly
	// loaded documents, and no generation it pins is one the writer
	// will have to clone.
	var f *fleet
	for i := 0; i < spec.setups; i++ {
		if f != nil {
			if spec.readPhase > 0 && i == spec.setups-1 {
				targets, limits := in.startRefs(ri)
				readPhase(f, targets, limits, seed+11, res, tr)
			}
			if err := f.remove(); err != nil {
				return nil, err
			}
		}
		var err error
		if f, err = newFleet(spec, in, wire); err != nil {
			return nil, err
		}
		res.broken = map[string]bool{}
		res.setups = append(res.setups, f.load(docs, ri, res, tr))
	}
	defer f.remove()
	docs = nil // the start trees are garbage from here on

	// Write phase, with the concurrent reader on readmix.
	var rd *reader
	if spec.reader {
		targets, limits := in.finalRefs(ri)
		rd = &reader{api: f.api(1), in: in, ri: ri, plan: newReadPlan(targets, limits, seed+7, false)}
		if tr != nil {
			rd.tr = newTracer() // the writer records into tr concurrently
		}
		rd.start()
	}
	// Each document's position in its stream, for the reference side
	// of the space samples.
	state := make([]int, len(in.ids))
	for d := range state {
		state[d] = in.k - ri.replay[d]
	}
	cp := 0
	var paused time.Duration // checkpoints, kept out of both clocks
	var pausedCPU float64
	runtime.GC()
	if tr != nil {
		tr.beginWrite()
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	for i, fb := range ri.sched {
		id := in.ids[fb.Doc]
		res.attempted++
		if res.broken[id] {
			res.failed++
			continue
		}
		if tr != nil {
			tr.codec(id, fb.Ops)
		}
		b0 := time.Now()
		err := f.api(0).Apply(id, fb.Ops)
		if err != nil {
			res.failed++
			res.broken[id] = true
			continue
		}
		res.writes.add(time.Since(b0))
		if tr != nil {
			tr.span(applySpan(wire), b0)
		}
		res.ops += len(fb.Ops)
		res.batches++
		state[fb.Doc] += len(fb.Ops)
		if cp < checkpoints && i+1 >= (cp+1)*len(ri.sched)/checkpoints {
			cp++
			c0, ccpu := time.Now(), cpuTime()
			if !spec.durable {
				res.space = append(res.space, f.spaceRatio(ri, state))
			}
			if tr != nil {
				tr.checkpoint(f)
			}
			paused += time.Since(c0)
			pausedCPU += cpuTime() - ccpu
		}
	}
	res.attempted++
	if err := f.api(0).Quiesce(); err != nil {
		res.failed++
	}
	res.write = (time.Since(t0) - paused).Seconds()
	res.cpu = cpuTime() - cpu0 - pausedCPU
	if rd != nil {
		rd.finish(res, tr)
	}
	if !spec.durable {
		res.space = append(res.space, f.spaceRatio(ri, state))
	}
	if tr != nil {
		tr.fleetStats(f, spec.durable)
		if !spec.durable {
			tr.study(f)
		}
	}

	// coldfleet: drain and close, then time the recovery of the fleet
	// from disk; the correctness check runs on the recovered fleet, so
	// it also proves that every acked batch survived.
	if spec.durable {
		if err := f.stop(); err != nil {
			return nil, fmt.Errorf("drain and close: %w", err)
		}
		t0 = time.Now()
		if err := f.open(); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		took := time.Since(t0)
		res.recovery = took.Seconds()
		if err := f.serve(1); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.recovered(f, took)
		}
	}

	// Correctness: every document derives exactly its reference state.
	var gsum, esum float64
	for d, id := range in.ids {
		res.attempted++
		g, err := f.snapshot(id, tr)
		if err != nil {
			res.failed++
			continue
		}
		doc, err := sltgrammar.Decompress(g, 0)
		t := in.pool[ri.entry[d]].final
		if err != nil || !t.matches(doc) {
			res.wrong++
			continue
		}
		gsum += float64(g.Size())
		esum += float64(t.edges)
		if tr != nil && spec.durable {
			tr.encode(g)
		}
	}
	if spec.durable {
		res.space = []float64{gsum / esum}
	}
	if err := f.stop(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return res, nil
}

// newFleet opens a fresh fleet for one setup: an empty store (in a new
// directory under workDir when durable) and, on wire passes, its
// server and its connections.
func newFleet(spec *workloadSpec, in *inputs, wire bool) (*fleet, error) {
	f := &fleet{spec: spec, in: in, wire: wire}
	if spec.durable {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workDir, spec.name+"-")
		if err != nil {
			return nil, err
		}
		f.dir = dir
	}
	if err := f.open(); err != nil {
		f.remove()
		return nil, err
	}
	if err := f.serve(conns); err != nil {
		f.remove()
		return nil, err
	}
	return f, nil
}

// load is the timed setup: it compresses every start document on its
// own and opens it, and returns the seconds that took. It starts from a
// collected heap, like every timed phase, so garbage the previous phase
// left is not charged to it.
func (f *fleet) load(docs []*xmltree.Document, ri *roundInputs, res *roundResult, tr *tracer) float64 {
	in := f.in
	w := f.api(0)
	runtime.GC()
	t0 := time.Now()
	for d, id := range in.ids {
		c0 := time.Now()
		g, _ := sltgrammar.Compress(docs[d])
		if tr != nil {
			tr.span("treerepair.compress", c0)
			tr.count("treerepair.doc_edges", float64(in.pool[ri.entry[d]].starts[ri.replay[d]].edges))
		}
		res.attempted++
		if err := w.Open(id, g); err != nil {
			res.failed++
			res.broken[id] = true
		}
	}
	return time.Since(t0).Seconds()
}

// remove stops the fleet if it still runs and deletes its directory.
func (f *fleet) remove() error {
	var err error
	if f.ss != nil {
		err = f.stop()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
	return err
}

func applySpan(wire bool) string {
	if wire {
		return "server.apply"
	}
	return "store.apply"
}

// spaceRatio samples Σ|G| / Σ derived-tree edges over the fleet, with
// each document at position state[d] of its stream. |G| comes from the
// fleet's counters, which read every document under its read lock:
// taking a snapshot instead would pin the published generation and make
// the writer's next batch on the document clone its grammar. The edge
// counts come from the reference replay. Unbounded fleets only, where
// reading a document's counters never rehydrates it.
func (f *fleet) spaceRatio(ri *roundInputs, state []int) float64 {
	var esum float64
	for d, i := range state {
		esum += float64(treeEdges(f.in.pool[ri.entry[d]].nodes[i]))
	}
	return float64(f.ss.Stats().Size) / esum
}

// readPhase issues the workload's read phase from every connection at
// once and checks every answer against targets, each document's
// reference state; limits bounds the point queries. With one connection the machine is idle but for the
// request ping-pong, and read latency swung by a third between repeats
// of the same reads on the same grammars as the idle cores slept or
// spun; a second reader keeps them busy and the repeats agree.
func readPhase(f *fleet, targets []*target, limits []int64, seed int64, res *roundResult, tr *tracer) {
	runtime.GC()
	parts := make([]roundResult, conns)
	trs := make([]*tracer, conns)
	var wg sync.WaitGroup
	for c := range parts {
		if tr != nil {
			trs[c] = newTracer()
		}
		plan := newReadPlan(targets, limits, seed+int64(c), true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			readLoop(f.api(c), f.in.ids, plan, f.spec.readPhase/conns, &parts[c], trs[c])
		}()
	}
	wg.Wait()
	for c := range parts {
		res.addReads(&parts[c])
		tr.merge(trs[c])
	}
}

// readLoop issues n reads from one connection and checks every answer
// against the reference state.
func readLoop(api fleetAPI, ids []string, plan *readPlan, n int, res *roundResult, tr *tracer) {
	for i := 0; i < n; i++ {
		req := plan.next()
		id := ids[req.doc]
		t := plan.targets[req.doc]
		res.attempted++
		r0 := time.Now()
		if req.count {
			c, err := api.CountLabel(id, req.label)
			if err != nil {
				res.failed++
				continue
			}
			res.reads.add(time.Since(r0))
			tr.span(countSpan(api), r0)
			if c != t.counts[req.label] {
				res.wrong++
			}
			continue
		}
		l, err := api.PointQuery(id, req.pre)
		if err != nil {
			res.failed++
			continue
		}
		res.reads.add(time.Since(r0))
		tr.span(pointSpan(api), r0)
		if l != t.syms.Name(t.labels[req.pre]) {
			res.wrong++
		}
	}
}

func pointSpan(api fleetAPI) string {
	if _, ok := api.(direct); ok {
		return "navigate.point"
	}
	return "server.point"
}

func countSpan(api fleetAPI) string {
	if _, ok := api.(direct); ok {
		return "navigate.count"
	}
	return "server.count"
}

// reader is readmix's second connection: Zipf-popular point queries
// and label counts, three to one, for as long as the writer runs. The
// documents move under it, so an answer is checked for validity (a
// label of the document's alphabet, a whole non-negative count), not
// for one exact value.
type reader struct {
	api  fleetAPI
	in   *inputs
	ri   *roundInputs
	plan *readPlan
	tr   *tracer
	stop atomic.Bool
	wg   sync.WaitGroup
	res  roundResult
}

func (r *reader) start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for !r.stop.Load() {
			req := r.plan.next()
			id := r.in.ids[req.doc]
			alphabet := r.in.pool[r.ri.entry[req.doc]].alphabet
			r.res.attempted++
			r0 := time.Now()
			if req.count {
				c, err := r.api.CountLabel(id, req.label)
				if err != nil {
					r.res.failed++
					continue
				}
				r.res.reads.add(time.Since(r0))
				r.tr.span(countSpan(r.api), r0)
				if c < 0 || c != math.Trunc(c) {
					r.res.wrong++
				}
				continue
			}
			l, err := r.api.PointQuery(id, req.pre)
			if err != nil {
				r.res.failed++
				continue
			}
			r.res.reads.add(time.Since(r0))
			r.tr.span(pointSpan(r.api), r0)
			if !alphabet[l] {
				r.res.wrong++
			}
		}
	}()
}

// finish stops the reader, waits for it, and folds its counts into res
// and its spans into tr.
func (r *reader) finish(res *roundResult, tr *tracer) {
	r.stop.Store(true)
	r.wg.Wait()
	tr.merge(r.tr)
	res.addReads(&r.res)
}

// addReads folds the reads of o, run beside this round's, into r.
func (r *roundResult) addReads(o *roundResult) {
	r.reads = append(r.reads, o.reads...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
}

// heapStats reads the Go runtime's heap counters (outside any span).
func heapStats() (inuse float64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse), ms.NumGC
}

// codecBytes frames an Apply request the way the client does
// (server/wire.go: type byte, document string, op batch) and returns
// the framed size.
func codecBytes(id string, payload []byte) int {
	n := 1 + len(binary.AppendUvarint(nil, uint64(len(id)))) + len(id) + len(payload)
	frame, _ := server.AppendFrame(nil, make([]byte, n))
	return len(frame)
}
