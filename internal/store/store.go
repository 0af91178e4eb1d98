// Package store is the long-lived dynamic-document engine of the
// reproduction: a Store wraps a grammar-compressed XML document and owns
// its maintenance across an unbounded stream of update operations — the
// production shape of the paper's §III/§V-C protocol that the examples
// and experiments previously hand-rolled.
//
// # Lifecycle
//
// A Store is created around an existing grammar (New takes ownership of
// it) and from then on every mutation goes through Apply/ApplyAll and
// every read through Query/Snapshot/the aggregate helpers. Three
// maintenance concerns are automated:
//
//   - Size-vector caching. Path isolation needs the size vectors
//     size(A,0..k) of every rule, but only the start rule's right-hand
//     side changes under updates (internal/isolate/isolate.go), so the
//     Store computes the full map once and afterwards refreshes just the
//     start rule's vector per operation — O(|RHS_S|) instead of the
//     O(|G|) ValSizes pass per op that update.Apply pays. Non-start
//     entries are invalidated only by recompression, which replaces the
//     grammar wholesale.
//
//   - Reference-counted rule collection. The cache also counts, per
//     rule, the call nodes naming it, and keeps |G| exact. An unfold
//     that inlines a rule's last call strands the rule, whatever the op;
//     so does a delete that drops it. Each op adjusts the counts by what
//     it edited, and the batch ends by deleting the rules whose count
//     fell to 0, cascading into the rules only they called. Stranded
//     rules are unreachable from the start symbol and therefore
//     invisible to isolation and queries until then. No batch walks the
//     grammar or the start rule: the collection costs the collected
//     rules, and the recompression policy reads the exact |G|.
//
//   - Self-tuning recompression. Updates degrade the grammar; the Store
//     triggers GrammarRePair when |G| grows past Ratio × |G| at the last
//     compression. The effective ratio adapts to the workload: when a
//     recompression barely shrinks the grammar the trigger backs off
//     (up to MaxRatio) so incompressible churn is not recompressed in a
//     tight loop, and when recompression pays off the trigger resets to
//     the configured base. Set Ratio < 0 for manual-only Recompress.
//     The ratio trigger, run synchronously or asynchronously (below),
//     and a manual Recompress are the only recompression policies, so
//     when a run fires depends on the op stream alone, never on what
//     readers did.
//
// # Asynchronous recompression
//
// With Config.Async the O(|G|) GrammarRePair pass moves off the write
// lock entirely. When the policy fires, the Store clones the grammar
// under the lock (the only stall writers ever see, Stats.StallNanos),
// stamps the clone with the grammar's update epoch, and compresses the
// clone in a background goroutine, which also pre-computes the new
// grammar's size vectors and reference counts. On completion the swap
// protocol runs under the write lock:
//
//   - epoch unchanged → the snapshot still derives the live document;
//     the compressed grammar and its pre-warmed cache are swapped in
//     (update.Cache.Install — no O(|G|) warm-up under the lock).
//   - epoch advanced by at most MaxTail ops → the ops that raced the
//     compression (the tail, recorded while a run is in flight) are
//     replayed onto the compressed copy, then it is swapped in. A write
//     racing a recompression is therefore never lost.
//   - tail overflow, a replay error, or an intervening manual
//     Recompress → the run is discarded
//     (Stats.DiscardedRecompressions) and the policy simply fires again
//     later.
//
// # Concurrency: generational zero-copy reads
//
// A Store is safe for concurrent use. Mutations take the write lock;
// reads do not take it at all: every mutation critical section ends by
// publishing an immutable grammar generation through an atomic pointer,
// and Snapshot, Cursor, Query, Size, TreeSize, Elements, CountLabel and
// LabelHistogram serve from the current generation lock-free — a
// Snapshot is a pointer grab, not a copy, and it is invalidation-safe
// forever because a generation any reader has touched is never mutated
// again (the writer moves to a fresh clone; see generation.go for the
// free/shared/reclaimed protocol). A write-only document is never
// cloned at all: the writer reclaims each unread generation and keeps
// mutating it in place. Per-generation aggregate caches (usage vector,
// tree size, |G|) ride the generation, so hot query streams never
// invalidate each other. Stats still takes the read lock — it reports
// writer-side counters. For many documents, see Sharded in this
// package.
package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/isolate"
	"repro/internal/navigate"
	"repro/internal/update"
	"repro/internal/wal"
)

// Config tunes a Store. The zero value selects the defaults below.
type Config struct {
	// Ratio triggers auto-recompression when |G| exceeds
	// Ratio × |G_lastCompressed|. 0 selects DefaultRatio; a negative
	// value disables auto-recompression (Recompress stays available).
	Ratio float64
	// MaxRatio caps how far the self-tuning policy may back the trigger
	// off when recompressions stop paying (0 = DefaultMaxRatio).
	MaxRatio float64
	// MinSize suppresses auto-recompression below this grammar size, so
	// small documents are not recompressed on every few ops
	// (0 = DefaultMinSize).
	MinSize int
	// Async moves policy-triggered recompression off the write lock: the
	// grammar is cloned and compressed in a background goroutine and the
	// result is swapped in under the epoch protocol (see the package
	// comment). Manual Recompress stays synchronous either way.
	Async bool
	// MaxTail bounds how many update operations may race an in-flight
	// asynchronous recompression and still be replayed onto its result;
	// past the bound the run is discarded instead (0 = DefaultMaxTail,
	// negative = never replay).
	MaxTail int
	// MemoryBudget, when > 0, bounds a Sharded fleet's resident
	// footprint: once the summed ResidentBytes estimate of every live
	// document exceeds the budget, the coldest documents (least recently
	// written or queried) are evicted — in-memory fleets freeze them to
	// their encoded bytes, durable fleets drop them entirely and
	// rehydrate through WAL recovery — and reopen transparently on the
	// next Apply/Get/Query. Ignored by single-document Stores.
	MemoryBudget int64
	// Durability, when non-nil, arms the write-ahead log: committed
	// batches hit disk before ApplyAll acks and snapshots roll in the
	// background (see the Durability type). Durable Stores are built
	// with CreateDurable/OpenDurable (or the Sharded layer's
	// OpenSharded); plain New ignores this field.
	Durability *Durability
}

// Policy defaults; see Config.
const (
	DefaultRatio    = 1.5
	DefaultMaxRatio = 4.0
	DefaultMinSize  = 64
	DefaultMaxTail  = 128
)

// payoffThreshold is the minimum shrink factor (size before / size after)
// a recompression must achieve for the policy to keep its current
// trigger; below it the trigger backs off multiplicatively.
const payoffThreshold = 1.15

// Counters are a Store's monotonic counts. Stats and ShardedStats both
// embed them, so each counter is declared once and a fleet total is one
// add per document — evicted documents included.
type Counters struct {
	Ops     int64 // operations applied
	Renames int64
	Inserts int64
	Deletes int64
	Batches int64 // Apply/ApplyAll calls
	// DupBatches counts sequenced batches acked idempotently because
	// their sequence was at or below the watermark — each one is a
	// client retry whose original ack was lost (the exactly-once path
	// doing its job).
	DupBatches int64

	Recompressions          int64 // GrammarRePair runs swapped in (auto + manual)
	AsyncRecompressions     int64 // of those, runs compressed off the write lock
	DiscardedRecompressions int64 // async runs thrown away (tail overflow / raced)
	ReplayedTailOps         int64 // ops replayed onto async results before swap
	// Deprecated: always 0. The isolation-cost trigger is gone; the
	// field stays until no benchmark reads it.
	CostRecompressions int64
	// Deprecated: always 0. The fleet recompression gate is gone; the
	// field stays until no benchmark reads it.
	DeferredRecompressions int64
	// StallNanos is the cumulative write-lock time spent on
	// recompression work: the whole GrammarRePair pass for synchronous
	// runs; for asynchronous ones the snapshot clone, then the swap with
	// its tail replay and collection — the number the async mode exists
	// to shrink.
	StallNanos int64

	SizeCacheHits    int64 // ops served from the warm size-vector cache
	SizeCacheMisses  int64 // full ValSizes recomputations
	UsageCacheHits   int64 // label queries served from the warm usage cache
	UsageCacheMisses int64 // usage-vector recomputations
	GCRuns           int64 // batch-end collections that found a stranded rule
	RulesCollected   int64 // rules removed by those collections

	// Isolation-frontier counters (internal/isolate's spine index).
	// IsolationSteps is the naive descent work: explicit start-RHS nodes
	// stepped through one by one; IsolationJumps/IsolationSkipped are the
	// seeks that replaced walks and the entries they skipped.
	IsolationSteps   int64
	IsolationJumps   int64
	IsolationSkipped int64
	// Deprecated: always 0. Re-folding is gone; the field stays until
	// no benchmark reads it.
	Refolds int64
	// Deprecated: always 0. Re-folding is gone; the field stays until
	// no benchmark reads it.
	RefoldedNodes int64

	// Durability counters; all zero for in-memory Stores.
	WALAppends       int64 // acked batches appended to the log
	WALBytes         int64 // their framed on-disk size
	WALSyncs         int64 // fsyncs on the append + snapshot paths
	FsyncNanos       int64 // wall time inside those fsyncs
	Snapshots        int64 // snapshots published over this Store's lifetime
	SnapshotFailures int64
	// Recovery results, set once at OpenDurable time. The replayed ops
	// count here only: every other counter restarts at zero after the
	// replay, so a fleet counts each op once across rehydrations.
	RecoveredOps         int64 // WAL tail ops replayed at open
	TruncatedTailRecords int64 // unacked torn records dropped at open
	SnapshotsCorrupt     int64 // corrupt snapshots skipped at open
}

// add folds o into c, field by field.
func (c *Counters) add(o Counters) {
	c.Ops += o.Ops
	c.Renames += o.Renames
	c.Inserts += o.Inserts
	c.Deletes += o.Deletes
	c.Batches += o.Batches
	c.DupBatches += o.DupBatches
	c.Recompressions += o.Recompressions
	c.AsyncRecompressions += o.AsyncRecompressions
	c.DiscardedRecompressions += o.DiscardedRecompressions
	c.ReplayedTailOps += o.ReplayedTailOps
	c.StallNanos += o.StallNanos
	c.SizeCacheHits += o.SizeCacheHits
	c.SizeCacheMisses += o.SizeCacheMisses
	c.UsageCacheHits += o.UsageCacheHits
	c.UsageCacheMisses += o.UsageCacheMisses
	c.GCRuns += o.GCRuns
	c.RulesCollected += o.RulesCollected
	c.IsolationSteps += o.IsolationSteps
	c.IsolationJumps += o.IsolationJumps
	c.IsolationSkipped += o.IsolationSkipped
	c.WALAppends += o.WALAppends
	c.WALBytes += o.WALBytes
	c.WALSyncs += o.WALSyncs
	c.FsyncNanos += o.FsyncNanos
	c.Snapshots += o.Snapshots
	c.SnapshotFailures += o.SnapshotFailures
	c.RecoveredOps += o.RecoveredOps
	c.TruncatedTailRecords += o.TruncatedTailRecords
	c.SnapshotsCorrupt += o.SnapshotsCorrupt
}

// Stats is a point-in-time snapshot of a Store: its Counters plus the
// gauges below.
type Stats struct {
	Counters
	LastSeq uint64 // the exactly-once watermark
	// RecompressionInflight reports an asynchronous run between snapshot
	// and swap at the time of the Stats call.
	RecompressionInflight bool

	SpineNodes int // entries in the live isolation-frontier index
	Spines     int // spines those entries belong to

	Size               int     // current |G|
	PeakSize           int     // max |G| observed at any batch boundary
	LastCompressedSize int     // |G| right after the last recompression
	EffectiveRatio     float64 // current self-tuned trigger ratio
	// ResidentBytes is the memory-tier footprint estimate of the live
	// document (see Store.ResidentBytes).
	ResidentBytes int64

	// Elements is the document's element count. When the derived tree is
	// too large for int64 (exponentially compressing grammars) Saturated
	// is true and Elements is 0 — never a bogus huge number.
	Elements  int64
	Saturated bool

	Durable bool // the Store appends to a write-ahead log
	// WALBroken reports a write-path durability failure: applied state
	// and disk have diverged and every later write fails fast until
	// the document is reopened through recovery.
	WALBroken bool
}

// Store is a grammar-compressed document under a stream of updates. See
// the package comment for the lifecycle.
type Store struct {
	mu    sync.RWMutex
	g     *grammar.Grammar
	cache update.Cache

	// pub is the read half of the Store: the current published
	// generation (immutable grammar + generation-owned aggregate
	// caches), replaced at the end of every mutation critical section
	// and acquired by readers without the lock. See generation.go.
	pub atomic.Pointer[generation]

	// usageHits/usageMisses count label-query cache traffic across all
	// generations; the cached vectors themselves live on the generation.
	usageHits, usageMisses atomic.Int64

	cfg      Config
	effRatio float64 // current trigger; self-tunes within [base, MaxRatio]

	lastCompressed int
	peakSize       int

	// Asynchronous recompression state (all guarded by mu). gen counts
	// grammar swaps (sync and async): a completion whose recorded gen no
	// longer matches arrived after a manual Recompress replaced the
	// grammar and must be discarded regardless of epochs. While a run is
	// in flight, every applied op is also appended to tail (up to
	// maxTail) so the completion can replay the race instead of wasting
	// the compression.
	inflight     bool
	gen          uint64
	tail         []update.Op
	tailOverflow bool
	// activeRuns counts background goroutines between launch and the end
	// of their completion; runsDone broadcasts every decrement. A plain
	// WaitGroup would be misuse here: Wait may run concurrently with an
	// Add-from-zero triggered by a still-active writer.
	activeRuns int
	runsDone   *sync.Cond

	// compress is the GrammarRePair entry point; tests inject a slow or
	// instrumented compressor to pin the swap protocol deterministically.
	compress func(*grammar.Grammar, core.Options) (*grammar.Grammar, *core.Stats)

	// Durability state (all guarded by mu; nil wl = in-memory Store).
	// walPos counts ops durably appended; it tracks the grammar's
	// update epoch through epochBase (walPos == epoch + epochBase while
	// the log is healthy — snapshot-decoded grammars restart their
	// epoch at zero, the base reconciles them). walBroken is the sticky
	// first WAL failure: applied memory and disk have diverged, so
	// every later write fails fast until reopen-through-recovery.
	closed       bool
	wl           *wal.Log
	walPos       int64
	epochBase    int64
	walBroken    error
	lastSnapPos  int64 // walPos covered by the newest published snapshot
	snapEvery    int64
	snapInflight bool

	// lastSeq is the exactly-once watermark (guarded by mu): the highest
	// client batch sequence applied, persisted with each WAL record and
	// snapshot and restored at OpenDurable.
	lastSeq uint64

	// ctr holds the monotonic counts that Stats reports (guarded by mu),
	// except those another component already keeps: the size-vector
	// cache's hits, the usage atomics, the frontier's and the WAL's own.
	// isoBase is the frontier's count at the end of WAL replay, which
	// Stats subtracts: replayed work is counted by the incarnation that
	// first applied it (see OpenDurable).
	ctr     Counters
	isoBase isolate.FrontierStats
}

// maxTail resolves the configured replay bound.
func (s *Store) maxTail() int {
	switch {
	case s.cfg.MaxTail < 0:
		return 0
	case s.cfg.MaxTail == 0:
		return DefaultMaxTail
	}
	return s.cfg.MaxTail
}

// New wraps a grammar in a Store, taking ownership: the caller must not
// mutate g afterwards (reads through Query/Snapshot instead).
func New(g *grammar.Grammar, cfg ...Config) *Store {
	var c Config
	if len(cfg) > 0 {
		c = cfg[0]
	}
	if c.Ratio == 0 {
		c.Ratio = DefaultRatio
	}
	if c.MaxRatio == 0 {
		c.MaxRatio = DefaultMaxRatio
	}
	if c.MaxRatio < c.Ratio {
		c.MaxRatio = c.Ratio
	}
	if c.MinSize == 0 {
		c.MinSize = DefaultMinSize
	}
	s := &Store{
		g:        g,
		cfg:      c,
		effRatio: c.Ratio,
		compress: core.Compress,
	}
	s.runsDone = sync.NewCond(&s.mu)
	// Warm the size-vector cache and reference counts while no reader
	// can hold the lock yet, so TreeSize/Elements/Size/Stats are O(1)
	// from the first call. On error (invalid grammar) the cache stays
	// cold and the first Apply surfaces the problem.
	s.cache.Sizes(g)
	size := s.cache.GrammarSize(g)
	s.lastCompressed = size
	s.peakSize = size
	// Publish generation zero so readers never observe a nil pointer.
	// New's ownership contract becomes load-bearing here: the caller's g
	// is frozen from this point on.
	s.publishLocked()
	return s
}

// Apply performs one update operation.
func (s *Store) Apply(op update.Op) error {
	return s.ApplyAll([]update.Op{op})
}

// ApplyAll performs a batch of operations: one shared size-vector cache
// across the batch, one collection of the rules it stranded at the end, one
// recompression-policy check at the batch boundary. On a durable Store
// the committed prefix is appended to the write-ahead log — and, per
// the fsync policy, on disk — before the call returns: a batch that
// acks survives a crash. A WAL failure outranks an in-batch apply
// error in the return value (whatever applied in memory, the batch is
// NOT durable) and breaks the write path until the document is
// reopened through recovery.
func (s *Store) ApplyAll(ops []update.Op) error {
	return s.ApplyAllSeq(ops, 0)
}

// ApplyAllSeq is ApplyAll with an exactly-once batch sequence number
// (0 = unsequenced, plain ApplyAll semantics). Sequences make network
// retry safe: a client that lost its connection mid-ack re-sends the
// batch under the same sequence, and the store — which tracks the last
// applied sequence, persisted with the WAL batch record — acks the
// duplicate idempotently without re-applying it. A sequence more than
// one past the watermark is a gap (a lost batch between client and
// store) and is rejected without applying anything. The sequence is
// consumed only when at least one op commits, so a batch rejected
// whole (validation error on op 0) leaves the watermark unchanged and
// exactly matches what the WAL recorded.
func (s *Store) ApplyAllSeq(ops []update.Op, seq uint64) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.walBroken != nil {
		// Fail fast BEFORE applying: memory already diverged from disk
		// once; applying more ops would widen the divergence.
		return fmt.Errorf("store: wal broken (reopen to recover): %w", s.walBroken)
	}
	if seq > 0 {
		if seq > wal.MaxBatchSeq {
			return fmt.Errorf("store: batch sequence %d out of range", seq)
		}
		if seq <= s.lastSeq {
			// Already applied (and, on a durable Store, logged): a retry
			// of a batch whose ack was lost. Ack again, apply nothing.
			s.ctr.DupBatches++
			return nil
		}
		if seq != s.lastSeq+1 {
			return fmt.Errorf("%w: batch sequence %d, store is at %d", ErrSeqGap, seq, s.lastSeq)
		}
	}
	s.ctr.Batches++
	var applyErr error
	committed := len(ops)
	for i := range ops {
		if err := s.applyLocked(ops[i]); err != nil {
			// Ops before i are committed (and batch maintenance ran);
			// the index makes the partial state diagnosable.
			applyErr = fmt.Errorf("store: op %d of %d: %w", i, len(ops), err)
			committed = i
			break
		}
	}
	walErr := s.appendWALLocked(ops[:committed], seq)
	if seq > 0 && committed > 0 && walErr == nil {
		s.lastSeq = seq
	}
	s.finishBatchLocked()
	// Publish before the snapshot check so the snapshot path can pin the
	// just-published generation instead of cloning the grammar. The
	// publish happens even on a WAL failure: whatever applied in memory
	// is the state readers must see.
	s.publishLocked()
	if walErr != nil {
		return walErr
	}
	s.maybeSnapshotLocked()
	return applyErr
}

// LastSeq returns the exactly-once watermark: the highest batch
// sequence number applied (0 if none ever carried one). A reconnecting
// client resumes its per-document numbering from here.
func (s *Store) LastSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastSeq
}

func (s *Store) applyLocked(op update.Op) error {
	s.ensurePrivateLocked()
	if err := update.ApplyCached(s.g, op, &s.cache); err != nil {
		return err
	}
	if s.inflight {
		// A recompression is racing this write. Record the op so the
		// completion can replay it onto the compressed result; past the
		// bound, stop recording and mark the run for discard.
		if !s.tailOverflow && len(s.tail) < s.maxTail() {
			s.tail = append(s.tail, op)
		} else {
			s.tailOverflow = true
		}
	}
	s.ctr.Ops++
	switch op.Kind {
	case update.Rename:
		s.ctr.Renames++
	case update.Insert:
		s.ctr.Inserts++
	case update.Delete:
		s.ctr.Deletes++
	}
	return nil
}

// finishBatchLocked collects the rules the batch stranded and runs the
// recompression policy at a batch boundary. |G| is read from the
// cache's exact count: nothing here walks a rule. (Usage staleness
// needs no handling here: usage vectors are cached per generation, and
// the batch publishes a fresh generation right after this returns.)
func (s *Store) finishBatchLocked() {
	s.gcLocked()
	size := s.cache.GrammarSize(s.g)
	if size > s.peakSize {
		s.peakSize = size
	}
	if s.cfg.Ratio < 0 {
		return
	}
	if size < s.cfg.MinSize || float64(size) <= s.effRatio*float64(s.lastCompressed) {
		return
	}
	if s.cfg.Async {
		s.startAsyncRecompressLocked()
	} else {
		s.recompressLocked()
	}
}

// startAsyncRecompressLocked launches one background GrammarRePair run:
// clone the grammar under the lock (the only writer-visible stall), then
// compress the clone and pre-compute its size vectors and reference
// counts off the lock. At
// most one run is in flight per Store; while the policy keeps firing the
// grammar just keeps growing until the swap lands.
func (s *Store) startAsyncRecompressLocked() {
	if s.inflight {
		return
	}
	start := time.Now()
	snap := s.g.Clone()
	s.ctr.StallNanos += time.Since(start).Nanoseconds()
	s.inflight = true
	s.tail = s.tail[:0]
	s.tailOverflow = false
	gen := s.gen
	epoch := snap.Epoch()
	s.activeRuns++
	go func() {
		g2, st := s.compress(snap, core.Options{})
		sizes, szErr := g2.ValSizes()
		var refs *update.Refs
		if szErr == nil {
			refs = update.CountRefs(g2)
		}
		s.completeAsync(gen, epoch, g2, st, sizes, refs, szErr)
	}()
}

// completeAsync is the swap protocol: called from the background
// goroutine with the compressed grammar, its pre-warmed size vectors
// and reference counts, and the gen/epoch stamps recorded at snapshot
// time.
func (s *Store) completeAsync(gen, epoch uint64, g2 *grammar.Grammar, st *core.Stats, sizes *grammar.SizeTable, refs *update.Refs, szErr error) {
	s.mu.Lock()
	// Writers are only stalled while the lock is actually held — waiting
	// for it above is the completion goroutine's problem, not theirs —
	// so the stall clock starts here.
	start := time.Now()
	defer func() {
		s.ctr.StallNanos += time.Since(start).Nanoseconds()
		s.activeRuns--
		s.runsDone.Broadcast()
		s.mu.Unlock()
	}()
	s.inflight = false
	tail := s.tail
	s.tail = nil
	discard := func() {
		s.ctr.DiscardedRecompressions++
	}
	if gen != s.gen || szErr != nil || s.tailOverflow {
		// The grammar was replaced under the run (manual Recompress), the
		// result is unusable, or too many writes raced it.
		discard()
		return
	}
	switch {
	case s.g.Epoch() == epoch:
		// No write raced the run; the snapshot still derives the live
		// document. Hand the pre-warmed vectors and counts to the cache —
		// no O(|G|) pass under the lock.
		s.cache.Install(sizes, refs)
	case len(tail) > 0 && s.g.Epoch() == epoch+uint64(len(tail)):
		// Writes raced the run but every one of them is in the tail:
		// replay them onto the compressed copy. g2 derives exactly the
		// snapshot document, so the ops' preorder positions are valid in
		// order, and each replayed op bumps g2's epoch — after the loop
		// the epochs line up again and no update is lost.
		s.cache.Install(sizes, refs)
		for _, op := range tail {
			if err := update.ApplyCached(g2, op, &s.cache); err != nil {
				// Should be impossible (same document); put the cache back
				// in service of the live grammar and drop the run.
				s.cache.Invalidate()
				s.cache.Sizes(s.g)
				discard()
				return
			}
		}
		s.ctr.ReplayedTailOps += int64(len(tail))
	default:
		// Epoch moved in a way the tail does not explain (it was trimmed,
		// or a non-update mutation happened): not safe to swap.
		discard()
		return
	}
	s.g = g2
	s.gen++
	// The replayed tail may have stranded rules; g2 is not published
	// yet, so the collection needs no copy.
	s.gcLocked()
	// Install retired the spine index with the pre-swap grammar (and a
	// tail replay only re-registers runs it happened to walk); the
	// generation published below seeds a compact view from the
	// compressed start-RHS chain lazily, on the first read that wants
	// indexed descent (generation.spineView), so the swap pays nothing.
	// The swap is a mutation critical section like any other: readers
	// must move to the compressed grammar, so publish it. Generations
	// pinned on the pre-swap grammar keep deriving the old state —
	// that grammar is frozen and untouched forever.
	s.publishLocked()
	s.ctr.Recompressions++
	s.ctr.AsyncRecompressions++
	// The policy baseline is what actually went live — including any
	// growth the tail replay just added — or sustained racing writes
	// would make every subsequent trigger fire earlier than Ratio says.
	s.lastCompressed = s.cache.GrammarSize(g2)
	if st.MaxIntermediate > s.peakSize {
		s.peakSize = st.MaxIntermediate
	}
	s.tunePolicy(st.InputSize, st.FinalSize)
}

// tunePolicy adapts the trigger ratio to a recompression's payoff: a run
// that barely shrank the grammar backs the trigger off (the churn is
// incompressible right now), a paying run resets it to the base.
func (s *Store) tunePolicy(before, after int) {
	if after > 0 && float64(before)/float64(after) < payoffThreshold {
		s.effRatio *= 1.5
		if s.effRatio > s.cfg.MaxRatio {
			s.effRatio = s.cfg.MaxRatio
		}
	} else {
		s.effRatio = s.cfg.Ratio
	}
}

// gcLocked deletes the rules whose reference count fell to 0 since the
// last collection, with the rules only they called. It costs the
// collected rules' call lists, and nothing when no op stranded a rule.
func (s *Store) gcLocked() {
	if !s.cache.Stranded() {
		return
	}
	s.ensurePrivateLocked()
	s.ctr.GCRuns++
	s.ctr.RulesCollected += int64(s.cache.Collect(s.g))
}

// recompressLocked runs GrammarRePair synchronously under the write
// lock, swaps in the result, invalidates the size-vector cache, and lets
// the trigger ratio adapt to the payoff.
func (s *Store) recompressLocked() *core.Stats {
	start := time.Now()
	before := s.cache.GrammarSize(s.g)
	g2, st := s.compress(s.g, core.Options{})
	s.g = g2
	s.gen++
	s.cache.Invalidate()
	// Re-warm under the already-held write lock: readers polling
	// aggregates on a write-idle Store must not each pay a full
	// ValSizes pass. Publish after the warm-up so the new generation's
	// O(1) tree-size fast path is prefilled.
	s.cache.Sizes(g2)
	// Invalidate retired the spine index with the old grammar; the
	// generation published below seeds a compact view from the fresh
	// start-RHS chain lazily, on the first read that wants indexed
	// descent (generation.spineView) — without that, every point query
	// after a recompression would descend naively until chains happen
	// to re-grow, and seeding here eagerly would bill every
	// recompression for an index only readers need.
	s.publishLocked()
	s.ctr.Recompressions++
	s.lastCompressed = s.cache.GrammarSize(g2)
	if st.MaxIntermediate > s.peakSize {
		s.peakSize = st.MaxIntermediate
	}
	s.tunePolicy(before, s.lastCompressed)
	s.ctr.StallNanos += time.Since(start).Nanoseconds()
	return st
}

// Recompress forces a synchronous GrammarRePair run regardless of the
// policy and returns its stats. If an asynchronous run is in flight its
// result will be discarded when it completes — the manual run already
// replaced the grammar it was compressing.
func (s *Store) Recompress() *core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
	return s.recompressLocked()
}

// Wait blocks until no asynchronous recompression is in flight
// (swapped in or discarded). It is safe to call concurrently with
// writers — a run they start while Wait sleeps is simply waited for
// too, so on return there was an instant with no run in flight.
func (s *Store) Wait() {
	s.mu.Lock()
	for s.activeRuns > 0 {
		s.runsDone.Wait()
	}
	s.mu.Unlock()
}

// Epoch returns the published grammar's update epoch: the number of
// update operations applied to the document as of the last completed
// batch. This is the stamp the asynchronous swap protocol compares;
// reading it is a single atomic load — alloc-free and pin-free, so
// monitoring polls never force the writer onto a clone.
func (s *Store) Epoch() uint64 {
	return s.pub.Load().epoch
}

// Query runs fn on the current published generation, lock-free and
// concurrently with writers: fn observes the document as of the last
// completed batch and never blocks (or is blocked by) ApplyAll. fn must
// treat the grammar as strictly read-only — mutation entry points panic
// on a published grammar — but unlike the old read-lock contract it MAY
// retain the grammar past the call: a published generation is immutable
// forever.
func (s *Store) Query(fn func(*grammar.Grammar) error) error {
	return fn(s.acquireGen().g)
}

// Snapshot returns the current published generation's grammar: an
// atomic pointer grab, not a copy. The grammar is immutable and
// invalidation-safe — later updates and recompressions are applied to
// fresh copies, never to a grammar a Snapshot handed out — so cursors
// built over it stay valid indefinitely. Callers that need a private
// mutable grammar (e.g. to feed a hand-rolled compression pass) must
// Clone it themselves.
func (s *Store) Snapshot() *grammar.Grammar {
	return s.acquireGen().g
}

// Cursor returns a DOM-style cursor over a snapshot of the document.
// Like Snapshot, opening it is O(depth) in the derived tree and does
// not copy the grammar. The cursor comes pre-equipped for indexed
// point queries: the generation's size-vector snapshot and (when the
// isolation frontier indexes long unfolded chains) its frozen spine
// view are attached, so SeekPreorder routes chunk-by-sum instead of
// walking sibling chains — see navigate.Cursor.SeekPreorder.
func (s *Store) Cursor() (*navigate.Cursor, error) {
	gn := s.acquireGen()
	c, err := navigate.NewCursor(gn.g)
	if err != nil {
		return nil, err
	}
	if gn.sizes != nil {
		c.AttachIndex(gn.sizes, gn.spineView())
	}
	return c, nil
}

// PointQuery returns the label of the node at the given preorder index
// (0-based, ⊥ leaves counted) of the published document, via the
// indexed seek of Cursor. For a stream of lookups, open one Cursor and
// SeekPreorder repeatedly instead — that amortizes the cursor
// allocation across the stream.
func (s *Store) PointQuery(pre int64) (string, error) {
	return s.pointQuery(pre, true)
}

// PointQueryNaive is PointQuery without the spine view: the same
// size-vector descent, but long unfolded chains are walked and
// re-measured node by node. It exists as the differential baseline for
// the indexed path (same grammar, same generation, same answer).
func (s *Store) PointQueryNaive(pre int64) (string, error) {
	return s.pointQuery(pre, false)
}

func (s *Store) pointQuery(pre int64, indexed bool) (string, error) {
	gn := s.acquireGen()
	if gn.sizes == nil {
		return "", fmt.Errorf("store: no size vectors published (invalid grammar?)")
	}
	c, err := navigate.NewCursor(gn.g)
	if err != nil {
		return "", err
	}
	if indexed {
		c.AttachIndex(gn.sizes, gn.spineView())
	} else {
		c.AttachIndex(gn.sizes, nil)
	}
	if err := c.SeekPreorder(pre); err != nil {
		return "", err
	}
	return c.Label(), nil
}

// Size returns the current grammar size |G|, cached per generation.
func (s *Store) Size() int {
	return s.acquireGen().cachedSize()
}

// TreeSize returns the node count of the derived binary tree, saturating
// at math.MaxInt64 for exponentially compressing grammars. O(1) whenever
// the size-vector cache was warm at publish time (any time after the
// first applied op).
func (s *Store) TreeSize() (int64, error) {
	return s.acquireGen().cachedTreeSize()
}

func (s *Store) treeSizeLocked() (int64, error) {
	if sizes := s.cache.Peek(); sizes != nil {
		if sv := sizes.Get(s.g.Start); sv != nil {
			return sv.Total, nil
		}
	}
	return s.g.ValNodeCount()
}

// Elements returns the document's element count, or grammar.ErrSaturated
// when the derived tree exceeds the int64 range.
func (s *Store) Elements() (int64, error) {
	n, err := s.TreeSize()
	if err != nil {
		return 0, err
	}
	if grammar.Saturated(n) {
		return 0, grammar.ErrSaturated
	}
	return (n - 1) / 2, nil
}

func (s *Store) elementsLocked() (int64, error) {
	n, err := s.treeSizeLocked()
	if err != nil {
		return 0, err
	}
	if grammar.Saturated(n) {
		return 0, grammar.ErrSaturated
	}
	return (n - 1) / 2, nil
}

// CountLabel counts occurrences of an element label in the document
// without decompressing. The usage vector is cached on the generation,
// so a hot query stream pays one Usage pass per published generation
// instead of one per query — and queries against an old pinned
// generation never invalidate a newer one's cache.
func (s *Store) CountLabel(label string) (float64, error) {
	gn := s.acquireGen()
	usage, err := gn.cachedUsage(&s.usageHits, &s.usageMisses)
	if err != nil {
		return 0, err
	}
	return navigate.CountLabelUsage(gn.g, usage, label), nil
}

// LabelHistogram returns the occurrence count of every element label,
// served from the same generation-cached usage vector as CountLabel.
func (s *Store) LabelHistogram() (map[string]float64, error) {
	gn := s.acquireGen()
	usage, err := gn.cachedUsage(&s.usageHits, &s.usageMisses)
	if err != nil {
		return nil, err
	}
	return navigate.LabelHistogramUsage(gn.g, usage), nil
}

// Memory-tier footprint coefficients: per-unit estimates of what one
// grammar tree node (arena slot + child pointers + Aux), one rule
// (header + registry slot + size vectors), and one isolation-frontier
// spine entry cost resident. Accounting estimates for eviction
// decisions, not exact heap measurements — what matters is that the
// estimate scales with the real footprint.
const (
	bytesPerNode       = 96
	bytesPerRule       = 112
	bytesPerSpineEntry = 48
)

// ResidentBytes estimates the document's resident memory footprint —
// grammar nodes, rule table, and the isolation-frontier index — the
// quantity Config.MemoryBudget bounds fleet-wide. Cold documents evict
// to their encoded bytes, typically 1–2 orders of magnitude smaller.
func (s *Store) ResidentBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.residentBytesLocked()
}

func (s *Store) residentBytesLocked() int64 {
	return int64(s.g.NodeCount())*bytesPerNode +
		int64(s.g.NumRules())*bytesPerRule +
		int64(s.cache.FrontierStats().Entries)*bytesPerSpineEntry
}

// Stats returns a snapshot of the Store's counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Counters:              s.ctr,
		LastSeq:               s.lastSeq,
		RecompressionInflight: s.inflight,
		Size:                  s.cache.GrammarSize(s.g),
		PeakSize:              s.peakSize,
		LastCompressedSize:    s.lastCompressed,
		EffectiveRatio:        s.effRatio,
		ResidentBytes:         s.residentBytesLocked(),
	}
	st.SizeCacheHits = s.cache.Hits
	st.SizeCacheMisses = s.cache.Misses
	st.UsageCacheHits = s.usageHits.Load()
	st.UsageCacheMisses = s.usageMisses.Load()
	fs := s.cache.FrontierStats()
	st.IsolationSteps = fs.Steps - s.isoBase.Steps
	st.IsolationJumps = fs.Jumps - s.isoBase.Jumps
	st.IsolationSkipped = fs.Skipped - s.isoBase.Skipped
	st.SpineNodes = fs.Entries
	st.Spines = fs.Spines
	if s.wl != nil {
		wc := s.wl.Counters()
		st.Durable = true
		st.WALAppends = wc.Appends
		st.WALBytes = wc.AppendedBytes
		st.WALSyncs = wc.Syncs
		st.FsyncNanos = wc.SyncNanos
		st.Snapshots = wc.Snapshots
		st.WALBroken = s.walBroken != nil
	}
	if st.Size > st.PeakSize {
		st.PeakSize = st.Size
	}
	if n, err := s.elementsLocked(); errors.Is(err, grammar.ErrSaturated) {
		st.Saturated = true
	} else if err == nil {
		st.Elements = n
	}
	return st
}
