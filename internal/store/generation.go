package store

import (
	"sync"
	"sync/atomic"

	"repro/internal/grammar"
	"repro/internal/isolate"
)

// A generation is one published, immutable state of a Store's document:
// the grammar as of some batch boundary, plus the lazily-filled read
// caches that serve aggregate queries against exactly that state. The
// writer publishes a fresh generation at the end of every mutation
// critical section (ApplyAll batch, recompression swap, manual
// Recompress), and readers grab the current one with a single atomic
// pointer load — no lock, no copy.
//
// # Lifecycle and the reclaim protocol
//
// A generation is born free (no reader has seen it). The first reader
// to touch it compare-and-swaps it to shared, which pins the wrapped
// grammar immutable forever: later generations wrap fresh clones. If no
// reader touched it by the time the writer mutates again, the writer
// CASes free → reclaimed and keeps mutating the same grammar in place —
// so a write-only document never clones at all, and a document under
// mixed read/write traffic clones at most once per batch.
//
//	          reader CAS            writer CAS
//	free ────────────────▶ shared   free ─────▶ reclaimed
//	        (immutable forever)     (mutated in place, unpublished)
//
// The race between those two CASes is the whole synchronization story:
// exactly one side wins, and each side's invariant holds from its win
// onwards. A reader that loses (finds the generation reclaimed) falls
// back to the store's read lock, under which the writer — who always
// republishes before releasing the write lock — is guaranteed to have
// published a fresh acquirable generation.
type generation struct {
	g *grammar.Grammar
	// epoch is g.Epoch() frozen at publish time: readable without
	// pinning the generation (the field never changes after publish).
	epoch uint64

	state atomic.Int32

	// treeSize/hasTreeSize are prefilled by the writer before publish
	// when the size-vector cache was warm — immutable afterwards, so the
	// O(1) TreeSize fast path needs no lock at all.
	treeSize    int64
	hasTreeSize bool

	// sizes/memo are the point-query accelerators, handed off by
	// pointer at publish time — the publish itself copies nothing.
	// That is sound because the cache's table and memo are only ever
	// mutated between ensurePrivateLocked and the next publish: if a
	// reader pins this generation shared, the writer's next
	// ensurePrivateLocked loses the reclaim CAS and moves to a clone,
	// taking a fresh table copy for itself (the pinned generation keeps
	// the original) and abandoning the memo via retireMemo — so from
	// the reader's point of view both objects are frozen. A reclaimed
	// generation's sizes/memo do alias live mutable state, but a
	// reclaimed generation is unreachable to readers by definition.
	//
	// The spine view is built from the memo lazily, on the first read
	// that wants indexed descent (viewOnce) — write-only workloads
	// never pay for it. When the memo is gone (a recompression retires
	// it with the grammar it served) but the index is enabled, seed is
	// set and the same lazy build falls back to isolate.SeedView: a
	// read-only pass over the frozen grammar that indexes the start
	// rule's dominant chain, so the first post-recompression point
	// query seeks instead of walking and the writer pays nothing at
	// publish.
	sizes    *grammar.SizeTable
	memo     *isolate.Memo
	seed     bool
	viewOnce sync.Once
	view     *isolate.SpineView

	// Lazily-computed per-generation read caches, guarded by cmu. They
	// move the Store's old usage/size caching into the generation so a
	// hot query stream never invalidates another generation's caches —
	// each generation computes each aggregate at most once, ever.
	cmu          sync.Mutex
	usage        []float64
	usageErr     error
	usageDone    bool
	lazyTreeSize int64
	lazyTreeErr  error
	lazyTreeDone bool
	size         int
	sizeDone     bool
}

// Generation states. Transitions: free → shared (reader acquire) or
// free → reclaimed (writer takeback); both are terminal.
const (
	genFree int32 = iota
	genShared
	genReclaimed
)

// tryAcquire pins the generation shared, making its grammar immutable
// from the caller's point of view. It fails only when the writer
// already reclaimed the generation — the caller must then re-load the
// published pointer under the store's read lock.
func (gn *generation) tryAcquire() bool {
	for {
		switch gn.state.Load() {
		case genShared:
			return true
		case genReclaimed:
			return false
		default:
			if gn.state.CompareAndSwap(genFree, genShared) {
				return true
			}
		}
	}
}

// cachedUsage returns the generation's usage vector, computing it on
// first use. The caller must have acquired the generation. hits/misses
// are the owning Store's fleet-visible counters.
func (gn *generation) cachedUsage(hits, misses *atomic.Int64) ([]float64, error) {
	gn.cmu.Lock()
	defer gn.cmu.Unlock()
	if gn.usageDone {
		hits.Add(1)
		return gn.usage, gn.usageErr
	}
	gn.usage, gn.usageErr = gn.g.Usage()
	gn.usageDone = true
	misses.Add(1)
	return gn.usage, gn.usageErr
}

// cachedTreeSize returns the derived tree's node count for this
// generation. O(1) when the writer prefilled it at publish (any time
// the size-vector cache was warm); otherwise one ValNodeCount pass,
// cached for the generation's lifetime. The caller must have acquired
// the generation.
func (gn *generation) cachedTreeSize() (int64, error) {
	if gn.hasTreeSize {
		return gn.treeSize, nil
	}
	gn.cmu.Lock()
	defer gn.cmu.Unlock()
	if !gn.lazyTreeDone {
		gn.lazyTreeSize, gn.lazyTreeErr = gn.g.ValNodeCount()
		gn.lazyTreeDone = true
	}
	return gn.lazyTreeSize, gn.lazyTreeErr
}

// spineView returns the generation's immutable spine-index view,
// building it on first use (nil when the index is empty or naive). The
// primary source is the handed-off memo; when the memo is gone or empty
// — the post-recompression gap — and seeding is enabled, the view is
// seeded from the frozen grammar's start-RHS chain instead. The caller
// must have acquired the generation: that pin is what freezes the
// memo's chunk state, and viewOnce serializes concurrent first readers.
// The seed path mutates nothing (isolate.SeedView only reads g and
// sizes), so generations that share a frozen grammar may each seed
// without racing.
func (gn *generation) spineView() *isolate.SpineView {
	if gn.memo == nil && !gn.seed {
		return nil
	}
	gn.viewOnce.Do(func() {
		gn.view = gn.memo.View()
		if gn.view == nil && gn.seed {
			gn.view = isolate.SeedView(gn.g, gn.sizes)
		}
	})
	return gn.view
}

// cachedSize returns |G| of this generation: prefilled by the writer
// from its exact count when the cache was warm, otherwise computed once.
// The caller must have acquired the generation.
func (gn *generation) cachedSize() int {
	gn.cmu.Lock()
	defer gn.cmu.Unlock()
	if !gn.sizeDone {
		gn.size = gn.g.Size()
		gn.sizeDone = true
	}
	return gn.size
}

// acquireGen returns the current published generation, pinned shared:
// the grammar it wraps is immutable from here on. The fast path is one
// atomic load plus one CAS; the slow path (the writer reclaimed the
// published generation between our load and acquire) retries under the
// read lock, where acquisition cannot fail — every writer critical
// section republishes a fresh free generation before unlocking.
func (s *Store) acquireGen() *generation {
	if gn := s.pub.Load(); gn.tryAcquire() {
		return gn
	}
	s.mu.RLock()
	gn := s.pub.Load()
	ok := gn.tryAcquire()
	s.mu.RUnlock()
	if !ok {
		// Unreachable while the publish protocol holds: under the read
		// lock no writer is mid-critical-section, and every completed
		// critical section ends with a fresh acquirable generation.
		panic("store: published generation reclaimed under read lock")
	}
	return gn
}

// ensurePrivateLocked makes s.g safe to mutate. Called (under the write
// lock) by every mutation path before its first grammar mutation. If no
// reader pinned the published generation, the writer reclaims it and
// mutates in place — the write-only fast path, zero copies. Otherwise
// the published grammar is immutable forever and the writer moves to a
// fresh clone. The pinned generation keeps the original size-vector
// table and the writer takes a snapshot copy (every vector is
// identical on the clone, but the live table's start vector is mutated
// in place per op, so the two sides must not share it). The reference
// counts carry over as they are: the clone keeps every rule ID, and
// readers never look at them. The isolation memo is not carried over at
// all — its spine index holds node pointers into the shared grammar,
// and a later Refold would splice those foreign nodes into the private
// copy; update.Cache.MoveTo abandons it to the pinned generation.
func (s *Store) ensurePrivateLocked() {
	gn := s.pub.Load()
	if gn == nil || gn.g != s.g {
		// Already on a private working copy (cloned earlier in this
		// critical section, or never published yet).
		return
	}
	if gn.state.Load() == genReclaimed {
		return // reclaimed earlier in this critical section
	}
	if gn.state.CompareAndSwap(genFree, genReclaimed) {
		s.g.Unfreeze()
		return
	}
	s.g = s.g.Clone()
	s.cache.MoveTo(s.g)
}

// publishLocked freezes the writer's working grammar and publishes it
// as a fresh generation, prefilling the O(1) tree-size and |G| fast
// paths from the warm cache. The size table and isolation memo are
// handed off by pointer — no copying on the write path; if a reader
// pins the generation, the writer's next ensurePrivateLocked takes the
// copy instead (see the generation field docs). Every mutation
// critical section must end with a publish (even one that mutated
// nothing — publishing the same grammar again is harmless), or the
// reader slow path's guarantee breaks.
func (s *Store) publishLocked() {
	g := s.g
	g.Freeze()
	gn := &generation{g: g, epoch: g.Epoch()}
	if sizes := s.cache.Peek(); sizes != nil {
		if sv := sizes.Get(g.Start); sv != nil {
			gn.treeSize = sv.Total
			gn.hasTreeSize = true
		}
		gn.sizes = sizes
		gn.memo = s.cache.Memo()
		gn.seed = !s.cache.Naive
		gn.size, gn.sizeDone = s.cache.GrammarSize(g), true
	}
	s.pub.Store(gn)
}
