package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/grammar"
	"repro/internal/update"
	"repro/internal/wal"
)

// Durability makes a Store (or a whole Sharded fleet) durable: every
// committed batch is appended to a per-document write-ahead log before
// ApplyAll acks, and encoded-grammar snapshots roll in the background
// so recovery replays a bounded tail instead of the whole history. See
// internal/wal for the on-disk format and the crash-tolerance
// contract.
type Durability struct {
	// Dir is the root directory; each document owns one subdirectory
	// under it (wal.DocDir).
	Dir string
	// Fsync is the append-path fsync policy (default wal.FsyncBatch:
	// an acked batch survives any crash).
	Fsync wal.FsyncPolicy
	// SnapshotEveryOps rolls a new snapshot once this many ops have
	// been logged past the last one (0 = DefaultSnapshotEveryOps,
	// negative = never snapshot automatically).
	SnapshotEveryOps int64
	// SegmentBytes is the WAL segment roll size (0 = wal default).
	SegmentBytes int64
	// Injector, when non-nil, intercepts every WAL file mutation —
	// the fault-injection hook crash tests drive. Production leaves
	// it nil.
	Injector wal.Injector
}

// DefaultSnapshotEveryOps bounds recovery replay to a few hundred ops
// per document.
const DefaultSnapshotEveryOps = 512

func (d *Durability) walOptions() wal.Options {
	return wal.Options{
		Fsync:        d.Fsync,
		SegmentBytes: d.SegmentBytes,
		Injector:     d.Injector,
	}
}

func (d *Durability) snapshotEvery() int64 {
	if d.SnapshotEveryOps == 0 {
		return DefaultSnapshotEveryOps
	}
	return d.SnapshotEveryOps
}

func (d *Durability) docDir(id string) string {
	return filepath.Join(d.Dir, wal.DocDir(id))
}

func encodeGrammar(g *grammar.Grammar) ([]byte, error) {
	var buf bytes.Buffer
	if err := grammar.Encode(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CreateDurable opens a NEW durable document: the grammar is written
// as the base snapshot (covering position 0) before the Store accepts
// a single op, so a crash at any later moment — including before the
// first rolled snapshot — recovers at least the seed state. Fails if
// the document directory already exists; reopening goes through
// OpenDurable.
func CreateDurable(id string, g *grammar.Grammar, cfg Config) (*Store, error) {
	d := cfg.Durability
	if d == nil {
		return nil, fmt.Errorf("store: CreateDurable without Config.Durability")
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: durability root: %w", err)
	}
	seed, err := encodeGrammar(g)
	if err != nil {
		return nil, fmt.Errorf("store: encode seed of %q: %w", id, err)
	}
	l, err := wal.Create(d.docDir(id), seed, d.walOptions())
	if err != nil {
		return nil, err
	}
	st := New(g, cfg)
	st.attachWAL(l, d, 0)
	return st, nil
}

// OpenDurable reopens a durable document after a crash or a clean
// close: the newest valid snapshot loads (falling back past corrupt
// ones), the WAL tail replays batch-by-batch through the normal apply
// path — same per-batch rule collection, same maintenance cadence
// as the original ApplyAll calls — and the Store resumes serving at
// exactly the acked prefix of the update stream.
func OpenDurable(id string, cfg Config) (*Store, error) {
	d := cfg.Durability
	if d == nil {
		return nil, fmt.Errorf("store: OpenDurable without Config.Durability")
	}
	rec, err := wal.Recover(d.docDir(id), d.walOptions())
	if err != nil {
		return nil, fmt.Errorf("store: recover %q: %w", id, err)
	}
	st := New(rec.Grammar, cfg)
	off := 0
	for _, n := range rec.BatchLens {
		if err := st.ApplyAll(rec.Tail[off : off+n]); err != nil {
			rec.Log.Close()
			return nil, fmt.Errorf("store: replay %q: %w", id, err)
		}
		off += n
	}
	// Replay may have launched asynchronous recompressions; they swap
	// (or discard) on their own and never change the derived document.
	st.attachWAL(rec.Log, d, rec.SnapshotPos)
	// Restore the exactly-once watermark: a client retrying a batch that
	// was applied (and logged) before the crash must be acked
	// idempotently, not re-applied.
	st.lastSeq = rec.LastSeq
	// The replayed ops were counted by the incarnation that first
	// applied them (in a fleet they already sit in the retired totals),
	// so the counters restart here with only the recovery results. The
	// cost trigger's op baseline shifts with them, keeping its window.
	st.mu.Lock()
	st.costBaseOps -= st.ctr.Ops
	st.ctr = Counters{
		RecoveredOps:         rec.Stats.RecoveredOps,
		TruncatedTailRecords: rec.Stats.TruncatedTailRecords,
		SnapshotsCorrupt:     rec.Stats.SnapshotsCorrupt,
	}
	st.cache.Hits, st.cache.Misses = 0, 0
	st.isoBase = st.cache.FrontierStats()
	st.mu.Unlock()
	return st, nil
}

// attachWAL arms the durability path on a Store whose in-memory state
// already matches the log's durable position. Called before the Store
// is shared, so no locking.
func (s *Store) attachWAL(l *wal.Log, d *Durability, lastSnapPos int64) {
	s.wl = l
	s.walPos = l.Pos()
	// The WAL position and the grammar's update epoch advance in
	// lockstep from here on, but their absolute values differ when the
	// grammar was decoded from a snapshot (epoch restarts at zero) or
	// replayed; the base reconciles them.
	s.epochBase = s.walPos - int64(s.g.Epoch())
	s.lastSnapPos = lastSnapPos
	s.snapEvery = d.snapshotEvery()
}

// appendWALLocked logs the committed prefix of a batch — stamped with
// its client sequence number, so the exactly-once watermark is exactly
// as durable as the ops it covers — before the ack. A WAL failure
// means the ops are applied in memory but not durable: the log (and
// this Store's write path) is broken until reopen, and the caller must
// surface the WAL error — the batch was NOT acked.
func (s *Store) appendWALLocked(ops []update.Op, seq uint64) error {
	if s.wl == nil || len(ops) == 0 {
		return nil
	}
	if err := s.wl.AppendBatch(s.walPos, seq, ops); err != nil {
		s.walBroken = err
		return fmt.Errorf("store: wal append: %w", err)
	}
	s.walPos += int64(len(ops))
	return nil
}

// SyncWAL forces an fsync of the document's WAL tail regardless of the
// configured fsync policy — the drain hook: a graceful front-end drain
// syncs every resident document after the last in-flight batch, so
// every acked write survives a post-drain kill even under FsyncOff.
// No-op for in-memory Stores.
func (s *Store) SyncWAL() error {
	s.mu.RLock()
	wl := s.wl
	s.mu.RUnlock()
	if wl == nil {
		return nil
	}
	return wl.Sync()
}

// maybeSnapshotLocked rolls a snapshot once enough ops have been
// logged past the last one. ApplyAll publishes the batch's generation
// right before calling this, after the batch collected every rule its
// unfolds and deletes stranded (the reference counts see both, so no
// stranded rule is frozen into a snapshot), so instead of cloning the
// grammar we pin that generation shared and encode it off the lock —
// snapshot publication costs the writer no copy at all, only a
// possible copy-on-write at the NEXT batch's first op. The encode and
// all file IO run in a background goroutine so writers never wait on
// snapshot publication.
func (s *Store) maybeSnapshotLocked() {
	if s.wl == nil || s.snapInflight || s.walBroken != nil || s.closed {
		return
	}
	if s.snapEvery < 0 || s.walPos-s.lastSnapPos < s.snapEvery {
		return
	}
	if int64(s.g.Epoch())+s.epochBase != s.walPos {
		// The in-memory document and the log disagree on the op count —
		// a snapshot here could cover ops the log never saw. Refuse;
		// this is unreachable while the log is healthy.
		return
	}
	pos := s.walPos
	seq := s.lastSeq // watermark covered by pos (both under the lock)
	gn := s.pub.Load()
	if gn.g != s.g || !gn.tryAcquire() {
		// Unreachable while the ApplyAll ordering holds (publish, then
		// snapshot check, all under the write lock): refuse rather than
		// encode a grammar the writer may keep mutating.
		return
	}
	s.snapInflight = true
	s.activeRuns++ // Wait/Quiesce/Close cover snapshot publication too
	go func() {
		enc, err := encodeGrammar(gn.g)
		if err == nil {
			err = s.wl.WriteSnapshot(pos, seq, enc)
		}
		s.mu.Lock()
		s.snapInflight = false
		if err == nil {
			if pos > s.lastSnapPos {
				s.lastSnapPos = pos
			}
		} else {
			// The snapshot failed but no acked data is at risk — the WAL
			// still holds every op. Recovery just replays a longer tail.
			s.ctr.SnapshotFailures++
		}
		s.activeRuns--
		s.runsDone.Broadcast()
		s.mu.Unlock()
	}()
}

// Close flushes and closes the Store. Pending background work
// (asynchronous recompressions, snapshot publication) completes first;
// a durable Store then fsyncs and closes its WAL, so a clean Close
// loses nothing even under FsyncOff. After Close every mutation
// returns ErrClosed; reads keep working on the final state.
func (s *Store) Close() error {
	s.mu.Lock()
	for s.activeRuns > 0 {
		s.runsDone.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.wl != nil {
		err = s.wl.Close()
	}
	s.mu.Unlock()
	return err
}
