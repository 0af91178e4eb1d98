// Sharded is the multi-document serving layer: document IDs are hashed
// across N shards, each shard owning its documents' Stores plus one
// write lock that serializes that shard's update batches. A batch is
// applied on the calling goroutine while it holds its shard's lock, so
// updates to documents in different shards never contend, while reads
// go straight to the per-document Store's lock-free generation and never
// touch a shard lock at all.
//
// The shard is deliberately the unit of write parallelism AND of write
// backpressure: one lock per shard bounds the number of grammars
// mutating concurrently to the shard count, whatever the document count,
// so a fleet of thousands of documents cannot stampede the CPU. Size
// the shard count to the write parallelism wanted (e.g. GOMAXPROCS);
// same-shard documents serialize behind each other by design.
//
// Combined with per-Store asynchronous recompression (Config.Async),
// the write path of a shard is never stalled by GrammarRePair either:
// writers keep applying batches while compressions run beside them and
// swap in under the epoch protocol.
//
// # Memory tiering
//
// With Config.MemoryBudget > 0 the fleet additionally bounds its
// resident footprint. Every document tracks a last-use clock (bumped by
// write batches and direct reads) and a ResidentBytes estimate; when
// the fleet total exceeds the budget, the coldest documents are
// evicted: an in-memory fleet freezes them to their grammar.Encode
// bytes (typically 1–2 orders of magnitude smaller than the live
// arenas + caches), a durable fleet drops them entirely — the WAL
// already holds everything — and rehydrates through wal.Recover. The
// next Apply/Get/Query on an evicted document reopens it transparently.
// Eviction closes the document's Store first, so a caller still
// holding a direct *Store handle across an eviction observes
// deterministic behavior: reads keep serving the final pre-eviction
// state, writes fail with ErrClosed (route writes through
// Sharded.ApplyAll, which always targets the live incarnation).
package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/grammar"
	"repro/internal/update"
	"repro/internal/wal"
)

// Errors returned by the sharded layer.
var (
	// ErrUnknownDoc reports an operation addressed to a document ID that
	// was never opened (or has been dropped).
	ErrUnknownDoc = errors.New("store: unknown document")
	// ErrClosed reports a mutation against a closed Store or Sharded
	// store: Apply/ApplyAll/Open after Close fail with it
	// deterministically (reads keep working on the final state).
	ErrClosed = errors.New("store: closed")
	// ErrSeqGap reports a sequenced batch that skips past the document's
	// exactly-once watermark: at least one earlier batch was lost between
	// the client and the store, so applying this one would silently drop
	// it. The batch is rejected without applying anything.
	ErrSeqGap = errors.New("store: batch sequence gap")
)

// Sharded serves many documents concurrently. See the type comment at
// the top of this file for the architecture; create one with NewSharded.
type Sharded struct {
	cfg    Config
	shards []*shard
	closed atomic.Bool

	// Memory-tier state. useClock is a fleet-wide logical clock stamped
	// into each document's lastUse on every touch; residentBytes sums
	// the footprint estimates of the resident documents.
	useClock      atomic.Int64
	residentBytes atomic.Int64
	evictions     atomic.Int64
	hydrations    atomic.Int64
	evictFailures atomic.Int64
	// readChecks rate-limits the read path's over-budget probe: every
	// readEvictEvery-th resident read runs the maybeEvict check, so a
	// read-only fleet still converges back under budget (the writers'
	// check only runs at write batch boundaries) without putting the
	// O(docs) victim scan on every lookup.
	readChecks atomic.Int64
	// evictMu admits one evictor at a time (TryLock — a concurrent
	// over-budget signal just lets the incumbent finish the job).
	evictMu sync.Mutex

	// retired accumulates the monotonic counters of evicted Stores so
	// fleet totals survive eviction: a rehydrated document restarts its
	// Store counters from zero, but Stats() starts from this.
	retiredMu sync.Mutex
	retired   Counters
}

// docEntry is one document's slot in the fleet: a stable identity that
// survives evictions, pointing at the live Store while resident and at
// the frozen encoded bytes while evicted (durable fleets keep neither —
// the WAL is the cold copy). mu serializes state transitions
// (hydrate/evict/close) and write batches; reads load st without it.
type docEntry struct {
	id string
	mu sync.Mutex
	st atomic.Pointer[Store]
	// frozen is the encoded grammar of an evicted in-memory document;
	// nil while resident and always nil on durable fleets. frozenSeq
	// preserves the exactly-once watermark across the freeze (durable
	// fleets recover it from the WAL instead).
	frozen    []byte
	frozenSeq uint64

	lastUse   atomic.Int64
	footprint atomic.Int64 // resident-bytes estimate last accounted
}

// shard is one hash bucket: its documents, and the lock serializing
// their updates. mu guards only the docs map, so reads never queue
// behind a writer; writeMu is held for the whole of one write batch.
type shard struct {
	mu   sync.RWMutex
	docs map[string]*docEntry

	writeMu sync.Mutex
}

// entries snapshots the shard's document entries, so callers can take
// entry locks without holding mu.
func (sh *shard) entries() []*docEntry {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	entries := make([]*docEntry, 0, len(sh.docs))
	for _, e := range sh.docs {
		entries = append(entries, e)
	}
	return entries
}

// NewSharded returns a multi-document store with the given shard count
// (n <= 0 selects GOMAXPROCS) whose documents all use cfg. It starts no
// goroutines; call Close to close the documents' Stores.
func NewSharded(n int, cfg ...Config) *Sharded {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var c Config
	if len(cfg) > 0 {
		c = cfg[0]
	}
	s := &Sharded{cfg: c, shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{docs: make(map[string]*docEntry)}
	}
	return s
}

// OpenSharded is the durable fleet constructor: it creates (or reuses)
// cfg.Durability.Dir and recovers every document directory found under
// it — newest valid snapshot, WAL tail replay, torn tails truncated —
// before returning. A fleet killed at any moment reopens here to
// exactly the acked prefix of every document's update stream. New
// documents are then added with Open as usual. Under a MemoryBudget
// the recovered fleet is trimmed to the budget before the first
// request is served.
func OpenSharded(n int, cfg Config) (*Sharded, error) {
	if cfg.Durability == nil {
		return nil, fmt.Errorf("store: OpenSharded without Config.Durability")
	}
	if err := os.MkdirAll(cfg.Durability.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: durability root: %w", err)
	}
	ents, err := os.ReadDir(cfg.Durability.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: durability root: %w", err)
	}
	s := NewSharded(n, cfg)
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		id, ok := wal.ParseDocDir(e.Name())
		if !ok {
			continue
		}
		st, err := OpenDurable(id, s.cfg)
		if err != nil {
			s.Close()
			return nil, err
		}
		de := &docEntry{id: id}
		de.st.Store(st)
		s.accountResident(de, st)
		sh := s.shardFor(id)
		sh.mu.Lock()
		sh.docs[id] = de
		sh.mu.Unlock()
	}
	s.maybeEvict()
	return s, nil
}

// applyEntry applies one batch to a document, rehydrating it first if
// it was evicted. Holding e.mu across the ApplyAll makes writes
// eviction-transparent: the evictor's TryLock fails while a batch is in
// flight, so a by-ID write can never land on a closing Store.
func (s *Sharded) applyEntry(e *docEntry, ops []update.Op, seq uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, err := s.hydrateLocked(e)
	if err != nil {
		return err
	}
	err = st.ApplyAllSeq(ops, seq)
	if s.cfg.MemoryBudget > 0 {
		s.touch(e)
		s.refreshFootprintLocked(e, st)
	}
	return err
}

// touch stamps the document with the fleet's logical use clock.
func (s *Sharded) touch(e *docEntry) {
	e.lastUse.Store(s.useClock.Add(1))
}

// accountResident records a newly resident Store's footprint. Only
// budgeted fleets pay the O(|G|) estimate walk; an unbudgeted fleet
// computes footprints on demand in Stats.
func (s *Sharded) accountResident(e *docEntry, st *Store) {
	if s.cfg.MemoryBudget <= 0 {
		return
	}
	s.touch(e)
	fp := st.ResidentBytes()
	s.residentBytes.Add(fp - e.footprint.Swap(fp))
}

// refreshFootprintLocked re-estimates a resident document's footprint
// after a write batch (grammar growth, recompression shrink, frontier
// churn all move it). Caller holds e.mu and MemoryBudget > 0.
func (s *Sharded) refreshFootprintLocked(e *docEntry, st *Store) {
	fp := st.ResidentBytes()
	s.residentBytes.Add(fp - e.footprint.Swap(fp))
}

// hydrateLocked returns the document's live Store, reopening it if it
// was evicted: durable fleets recover from the WAL (newest snapshot +
// tail replay), in-memory fleets decode the frozen bytes. Caller holds
// e.mu.
func (s *Sharded) hydrateLocked(e *docEntry) (*Store, error) {
	if st := e.st.Load(); st != nil {
		return st, nil
	}
	if s.closed.Load() {
		return nil, fmt.Errorf("%w: %q", ErrClosed, e.id)
	}
	var st *Store
	if s.cfg.Durability != nil {
		var err error
		if st, err = OpenDurable(e.id, s.cfg); err != nil {
			return nil, fmt.Errorf("store: rehydrate %q: %w", e.id, err)
		}
	} else {
		g, err := grammar.Decode(bytes.NewReader(e.frozen))
		if err != nil {
			// Unreachable: frozen came from encoding our own grammar.
			return nil, fmt.Errorf("store: rehydrate %q: %w", e.id, err)
		}
		st = New(g, s.cfg)
		st.lastSeq = e.frozenSeq // not yet shared: no lock needed
	}
	e.frozen = nil
	e.frozenSeq = 0
	e.st.Store(st)
	s.hydrations.Add(1)
	s.accountResident(e, st)
	return st, nil
}

// readEvictEvery is the read path's eviction-probe period (a power of
// two so the rate limit is one atomic add and a mask).
const readEvictEvery = 64

// stForRead resolves a docEntry to its live Store for the read path:
// alloc-free while resident, transparent rehydration when evicted.
// Budgeted fleets also run the rate-limited over-budget probe here, so
// pure read traffic (which rehydrates cold documents and can push the
// fleet over budget without ever crossing a write batch boundary)
// still triggers eviction. No entry lock is held at this point, as
// maybeEvict requires.
func (s *Sharded) stForRead(e *docEntry) (*Store, error) {
	if st := e.st.Load(); st != nil {
		if s.cfg.MemoryBudget > 0 {
			s.touch(e)
			if s.readChecks.Add(1)&(readEvictEvery-1) == 0 {
				s.maybeEvict()
			}
		}
		return st, nil
	}
	e.mu.Lock()
	st, err := s.hydrateLocked(e)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.maybeEvict()
	return st, nil
}

// maybeEvict trims the fleet back under MemoryBudget, coldest documents
// first. One evictor runs at a time; documents whose entry lock is held
// (a write batch or hydration in flight — by definition hot) are
// skipped. Callers must not hold any entry lock.
func (s *Sharded) maybeEvict() {
	if s.cfg.MemoryBudget <= 0 || s.residentBytes.Load() <= s.cfg.MemoryBudget {
		return
	}
	if !s.evictMu.TryLock() {
		return
	}
	defer s.evictMu.Unlock()
	type victim struct {
		e    *docEntry
		used int64
	}
	var victims []victim
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, e := range sh.docs {
			if e.st.Load() != nil {
				victims = append(victims, victim{e, e.lastUse.Load()})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].used < victims[j].used })
	for _, v := range victims {
		if s.residentBytes.Load() <= s.cfg.MemoryBudget || s.closed.Load() {
			return
		}
		s.evictEntry(v.e)
	}
}

// evictEntry freezes one document out of residency. Caller holds
// evictMu. Returns false when the entry was busy (skip it — it is hot)
// or the freeze failed (counted in EvictFailures; the document stays
// resident and serviceable).
func (s *Sharded) evictEntry(e *docEntry) bool {
	if !e.mu.TryLock() {
		return false
	}
	defer e.mu.Unlock()
	st := e.st.Load()
	if st == nil || s.closed.Load() {
		// Evicted already, or the fleet's Close owns (or owned) this
		// Store: it stays resident so its final state keeps serving.
		return false
	}
	// Close first: it waits out in-flight background work (async
	// recompressions, snapshot publication), then fsyncs and closes a
	// durable WAL. Afterwards the Store serves exactly its final state
	// to any reader still holding the handle and rejects writes with
	// ErrClosed — so the frozen bytes encoded below can never miss a
	// racing direct-handle write.
	if err := st.Close(); err != nil {
		// The WAL close failed; dropping the Store could orphan acked
		// data. Keep it resident (reads fine, writes already broken) and
		// let the operator see the counter.
		s.evictFailures.Add(1)
		return false
	}
	if s.cfg.Durability == nil {
		enc, err := encodeGrammar(st.Snapshot())
		if err != nil {
			// Unreachable for a valid grammar; keep the document
			// resident rather than lose it.
			s.evictFailures.Add(1)
			return false
		}
		e.frozen = enc
		e.frozenSeq = st.LastSeq()
	}
	ds := st.Stats()
	s.retiredMu.Lock()
	s.retired.add(ds.Counters)
	s.retiredMu.Unlock()
	e.st.Store(nil)
	s.residentBytes.Add(-e.footprint.Swap(0))
	s.evictions.Add(1)
	return true
}

// shardFor hashes a document ID to its shard (FNV-1a, inlined so the
// read path stays alloc-free).
func (s *Sharded) shardFor(id string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return s.shards[h%uint64(len(s.shards))]
}

// Open registers a new document under id, wrapping g in a Store with the
// Sharded store's Config (taking ownership of g), and returns the Store.
// Opening an existing ID is an error — use Get for lookups. On a durable
// fleet (Config.Durability) the document directory and its base snapshot
// are created before Open returns, so even a document that crashes
// before its first update recovers its seed grammar; directories from a
// previous process are reopened by OpenSharded, not Open.
func (s *Sharded) Open(id string, g *grammar.Grammar) (*Store, error) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	// Checked under sh.mu: Close sets the flag before it walks the docs
	// map, so a document registered here is either seen (and closed) by
	// that walk or refused.
	if s.closed.Load() {
		sh.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := sh.docs[id]; ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("store: document %q already open", id)
	}
	var st *Store
	if s.cfg.Durability != nil {
		var err error
		if st, err = CreateDurable(id, g, s.cfg); err != nil {
			sh.mu.Unlock()
			return nil, err
		}
	} else {
		st = New(g, s.cfg)
	}
	e := &docEntry{id: id}
	e.st.Store(st)
	s.accountResident(e, st)
	sh.docs[id] = e
	sh.mu.Unlock()
	s.maybeEvict()
	return st, nil
}

// Get returns the Store serving id, for direct reads (Query, CountLabel,
// Snapshot, Stats, ...). The lookup is alloc-free while the document is
// resident; an evicted document is rehydrated first. The returned
// handle is the document's current incarnation — after an eviction it
// keeps serving its final state but rejects writes with ErrClosed, so
// long-lived writers should go through Apply/ApplyAll by ID instead of
// caching the handle.
func (s *Sharded) Get(id string) (*Store, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.docs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	st, err := s.stForRead(e)
	if err != nil {
		return nil, false
	}
	return st, true
}

// get is Get with the error preserved for the read helpers.
func (s *Sharded) get(id string) (*Store, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.docs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDoc, id)
	}
	return s.stForRead(e)
}

// Drop removes the document from the store and reports whether it was
// present. In-flight recompressions of the dropped Store complete (and
// are discarded or swapped) on their own; Wait on the returned Store if
// that matters.
func (s *Sharded) Drop(id string) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	e, ok := sh.docs[id]
	delete(sh.docs, id)
	sh.mu.Unlock()
	if ok && e.st.Load() != nil {
		s.residentBytes.Add(-e.footprint.Swap(0))
	}
	return ok
}

// Apply performs one update operation on document id under the shard's
// write lock.
func (s *Sharded) Apply(id string, op update.Op) error {
	return s.ApplyAll(id, []update.Op{op})
}

// ApplyAll performs a batch of operations on document id. The batch is
// applied on the calling goroutine under its shard's write lock, so
// batches are serialized per shard while batches for documents in
// different shards run in parallel; the call returns when the batch has
// been applied. An evicted document is rehydrated before the batch
// applies — eviction is invisible to writers on this path. On a
// budgeted fleet the over-budget check runs after the shard lock is
// released, so other writers of the shard never wait on an eviction.
func (s *Sharded) ApplyAll(id string, ops []update.Op) error {
	return s.ApplyAllSeq(id, ops, 0)
}

// ApplyAllSeq is ApplyAll with an exactly-once batch sequence number
// (see Store.ApplyAllSeq): duplicates of already-applied sequences ack
// idempotently, gaps fail with ErrSeqGap.
func (s *Sharded) ApplyAllSeq(id string, ops []update.Op, seq uint64) error {
	if len(ops) == 0 {
		return nil
	}
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.docs[id]
	sh.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDoc, id)
	}
	if s.closed.Load() {
		return fmt.Errorf("%w: %q", ErrClosed, id)
	}
	// Waiting for the shard lock holds nothing else, so readers (and the
	// docs map) stay available. A doc dropped between the lookup and the
	// lock still receives the batch — Drop removes it from the registry,
	// it does not cancel writes already routed to it.
	sh.writeMu.Lock()
	err := s.applyEntry(e, ops, seq)
	sh.writeMu.Unlock()
	if s.cfg.MemoryBudget > 0 {
		s.maybeEvict()
	}
	return err
}

// LastSeq returns document id's exactly-once watermark (see
// Store.LastSeq) — what a reconnecting client resumes its numbering
// from.
func (s *Sharded) LastSeq(id string) (uint64, error) {
	st, err := s.get(id)
	if err != nil {
		return 0, err
	}
	return st.LastSeq(), nil
}

// SyncWAL fsyncs the WAL tail of every resident durable document — the
// graceful-drain hook: called after the last in-flight batch has
// finished, it makes every acked write durable before the process
// exits, whatever the configured fsync policy. Returns the first sync
// error.
func (s *Sharded) SyncWAL() error {
	var err error
	for _, st := range s.residentStores() {
		if serr := st.SyncWAL(); err == nil {
			err = serr
		}
	}
	return err
}

// Query runs fn on document id's current published generation,
// lock-free (see Store.Query).
func (s *Sharded) Query(id string, fn func(*grammar.Grammar) error) error {
	st, err := s.get(id)
	if err != nil {
		return err
	}
	return st.Query(fn)
}

// CountLabel counts label occurrences in document id (served from the
// generation's cached usage vector).
func (s *Sharded) CountLabel(id, label string) (float64, error) {
	st, err := s.get(id)
	if err != nil {
		return 0, err
	}
	return st.CountLabel(label)
}

// PointQuery returns the label at preorder index pre of document id,
// via the document's indexed read path (see Store.PointQuery) — the
// read primitive the network front-end serves.
func (s *Sharded) PointQuery(id string, pre int64) (string, error) {
	st, err := s.get(id)
	if err != nil {
		return "", err
	}
	return st.PointQuery(pre)
}

// Snapshot returns an invalidation-safe immutable snapshot of document
// id — an atomic generation grab, not a copy.
func (s *Sharded) Snapshot(id string) (*grammar.Grammar, error) {
	st, err := s.get(id)
	if err != nil {
		return nil, err
	}
	return st.Snapshot(), nil
}

// Docs returns the IDs of every open document (resident or evicted),
// sorted.
func (s *Sharded) Docs() []string {
	var ids []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id := range sh.docs {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// NumDocs returns the number of open documents (resident or evicted).
func (s *Sharded) NumDocs() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.docs)
		sh.mu.RUnlock()
	}
	return n
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// residentStores snapshots the currently resident Stores.
func (s *Sharded) residentStores() []*Store {
	var stores []*Store
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, e := range sh.docs {
			if st := e.st.Load(); st != nil {
				stores = append(stores, st)
			}
		}
		sh.mu.RUnlock()
	}
	return stores
}

// Quiesce blocks until no resident document has an asynchronous
// recompression in flight. Safe to call concurrently with writers (runs
// they start are waited for too); call it after writers are done and
// before comparing snapshots byte-for-byte.
func (s *Sharded) Quiesce() {
	for _, st := range s.residentStores() {
		st.Wait()
	}
}

// Close closes every resident document Store: pending background work
// (asynchronous recompressions, snapshot publication) completes, and on
// a durable fleet each document's WAL tail is fsynced and closed — a
// clean Close loses nothing even under FsyncOff. Close takes each
// document's entry lock before closing its Store, so it waits out a
// write batch or rehydration in flight and closes whatever Store that
// left resident. Writes after Close fail with ErrClosed
// deterministically; reads keep working on the final state of resident
// documents (evicted documents no longer rehydrate). Close is
// idempotent and returns the first per-document close error.
func (s *Sharded) Close() error {
	s.closed.Store(true)
	var err error
	for _, sh := range s.shards {
		for _, e := range sh.entries() {
			e.mu.Lock()
			if st := e.st.Load(); st != nil {
				if cerr := st.Close(); err == nil {
					err = cerr
				}
			}
			e.mu.Unlock()
		}
	}
	return err
}

// ShardedStats is the fleet's Counters — summed over every open
// document, including the Store incarnations that have since been
// evicted — plus the fleet gauges below. Size, PeakSize, ResidentBytes
// and BrokenDocs reflect only the currently resident documents.
type ShardedStats struct {
	Counters

	Shards int
	Docs   int

	Size     int // Σ |G| over resident documents
	PeakSize int // Σ resident per-document peaks

	// Memory-tier gauges and counters (MemoryBudget fleets; an
	// unbudgeted fleet reports Resident == Docs and live byte totals).
	Resident      int   // documents currently live
	Evicted       int   // documents currently frozen out
	Evictions     int64 // lifetime eviction count
	Hydrations    int64 // lifetime rehydration count
	EvictFailures int64 // evictions abandoned (close/encode failure)
	ResidentBytes int64 // Σ footprint estimate of resident documents

	// BrokenDocs counts documents whose WAL write path has failed;
	// they serve reads but reject writes until reopened.
	BrokenDocs int
}

// Stats sums the counters of every open document, starting from the
// retired accumulator so fleet totals are monotonic across evictions.
// It holds the evictor's lock for the duration so an eviction can never
// be observed half-accounted (folded into retired but still resident);
// an over-budget check racing a Stats call is simply deferred to the
// next batch boundary.
func (s *Sharded) Stats() ShardedStats {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	s.retiredMu.Lock()
	out := ShardedStats{Counters: s.retired}
	s.retiredMu.Unlock()
	out.Shards = len(s.shards)
	out.Evictions = s.evictions.Load()
	out.Hydrations = s.hydrations.Load()
	out.EvictFailures = s.evictFailures.Load()
	for _, sh := range s.shards {
		for _, e := range sh.entries() {
			out.Docs++
			st := e.st.Load()
			if st == nil {
				out.Evicted++
				continue
			}
			out.Resident++
			ds := st.Stats()
			out.add(ds.Counters)
			out.Size += ds.Size
			out.PeakSize += ds.PeakSize
			out.ResidentBytes += ds.ResidentBytes
			if ds.WALBroken {
				out.BrokenDocs++
			}
		}
	}
	return out
}
