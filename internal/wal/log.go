package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/update"
)

func segName(start int64) string { return fmt.Sprintf("wal-%016x.log", start) }
func snapName(pos int64) string  { return fmt.Sprintf("snap-%016x.snap", pos) }

// parseSegName extracts the start position from a segment file name.
func parseSegName(name string) (int64, bool) { return parseNumName(name, "wal-", ".log") }

// parseSnapName extracts the covered position from a snapshot file name.
func parseSnapName(name string) (int64, bool) { return parseNumName(name, "snap-", ".snap") }

func parseNumName(name, prefix, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 63)
	if err != nil {
		return 0, false
	}
	return int64(v), true
}

// Counters are the Log's cumulative durability counters. All fields
// only grow; a snapshot of them is returned by Log.Counters.
type Counters struct {
	// Appends counts acked batch appends; AppendedBytes their framed
	// on-disk size.
	Appends       int64
	AppendedBytes int64
	// Syncs counts fsyncs on the append path and snapshot publishes;
	// SyncNanos is the wall time they took.
	Syncs     int64
	SyncNanos int64
	// Snapshots counts published snapshots; SnapshotBytes their size.
	Snapshots     int64
	SnapshotBytes int64
	// SegmentsRemoved counts WAL segments deleted by truncation.
	SegmentsRemoved int64
}

// Log is one document's write-ahead log: an active append segment plus
// the sealed segments and snapshots sharing its directory. Safe for
// concurrent use; appends serialize on an internal mutex, and snapshot
// publication does its heavy file work off that mutex so a background
// snapshot never stalls the append path.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	w        *Writer // active segment
	segStart int64   // stream position of the active segment's first op
	pos      int64   // next op position (== ops durably appended)
	broken   error   // sticky first append-path failure
	ctr      Counters

	snapMu sync.Mutex // serializes snapshot publication
}

// Create initialises a document directory: a base snapshot covering
// position 0 (the seed grammar, so a crash before the first rolled
// snapshot still recovers) and an empty first segment. Fails if the
// directory already exists — reopening goes through Recover.
func Create(dir string, encodedGrammar []byte, opts Options) (*Log, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts}
	if err := l.publishSnapshot(0, 0, encodedGrammar); err != nil {
		return nil, err
	}
	if err := l.openSegmentLocked(0); err != nil {
		return nil, err
	}
	if err := l.syncDir(); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegmentLocked creates and activates the segment starting at
// stream position start. Caller holds mu (or owns l exclusively).
func (l *Log) openSegmentLocked(start int64) error {
	path := filepath.Join(l.dir, segName(start))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	w := NewWriter(f, FileWAL, l.opts.Injector, 0)
	if err := w.WriteHeader(segMagic, start); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	l.w = w
	l.segStart = start
	return nil
}

// Pos returns the stream position after the last durably appended op.
func (l *Log) Pos() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos
}

// Counters returns a snapshot of the cumulative counters.
func (l *Log) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ctr
}

// AppendBatch appends one committed batch whose first op has stream
// position start. Batches must chain contiguously (start == Pos()); a
// gap means the caller's in-memory state and the log disagree. seq is
// the client batch sequence number the batch was applied under (0 =
// unsequenced); it rides in the record so exactly-once retry state
// survives crash recovery. Any write or fsync failure marks the log
// broken: the batch was not acked and every later append fails fast
// with ErrLogBroken, because disk may now hold a torn prefix the
// in-memory document never applied.
func (l *Log) AppendBatch(start int64, seq uint64, ops []update.Op) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrLogBroken, l.broken)
	}
	if start != l.pos {
		return fmt.Errorf("wal: batch starts at %d, log is at %d", start, l.pos)
	}
	payload, err := encodeBatch(nil, start, seq, ops)
	if err != nil {
		return err
	}
	if l.w.Offset() >= l.opts.segmentBytes() {
		if err := l.rollSegmentLocked(); err != nil {
			l.broken = err
			return err
		}
	}
	n, err := l.w.AppendRecord(payload)
	if err != nil {
		l.broken = err
		return err
	}
	if err := l.maybeSyncLocked(); err != nil {
		l.broken = err
		return err
	}
	l.pos += int64(len(ops))
	l.ctr.Appends++
	l.ctr.AppendedBytes += n
	return nil
}

// rollSegmentLocked seals the active segment (sync + close) and opens
// the next one starting at the current position.
func (l *Log) rollSegmentLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.w.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	return l.openSegmentLocked(l.pos)
}

func (l *Log) maybeSyncLocked() error {
	if l.opts.Fsync == FsyncBatch {
		return l.syncLocked()
	}
	return nil
}

func (l *Log) syncLocked() error {
	t0 := time.Now()
	if err := l.w.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.ctr.Syncs++
	l.ctr.SyncNanos += time.Since(t0).Nanoseconds()
	return nil
}

// Sync forces an fsync of the active segment regardless of policy.
// A closed log is a no-op: Close already synced (or the log is broken
// and its tail is suspect anyway).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrLogBroken, l.broken)
	}
	if err := l.syncLocked(); err != nil {
		l.broken = err
		return err
	}
	return nil
}

// Close fsyncs and closes the active segment. A broken log closes the
// file without syncing — its tail is already suspect and recovery will
// truncate it.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	var err error
	if l.broken == nil {
		err = l.syncLocked()
	}
	if cerr := l.w.Close(); err == nil {
		err = cerr
	}
	l.w = nil
	return err
}

// syncDir fsyncs the document directory so created/renamed/removed
// file entries are themselves durable.
func (l *Log) syncDir() error {
	if l.opts.Injector != nil {
		if _, err := l.opts.Injector.Inject(FileSnapshot, OpSync, nil); err != nil {
			return fmt.Errorf("wal: sync dir: %w", err)
		}
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// remove deletes a file through the injector.
func (l *Log) remove(kind FileKind, path string) error {
	if l.opts.Injector != nil {
		if _, err := l.opts.Injector.Inject(kind, OpRemove, nil); err != nil {
			return fmt.Errorf("wal: remove %s: %w", filepath.Base(path), err)
		}
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("wal: remove: %w", err)
	}
	return nil
}

// truncateBefore removes sealed segments every op of which is below
// pos. A sealed segment's coverage ends where the next segment starts,
// so only segments with a successor can be judged; the active segment
// is never removed. Missing coverage is never created here — the call
// only ever deletes whole files whose ops a retained snapshot already
// covers.
func (l *Log) truncateBefore(pos int64) error {
	starts, err := listNums(l.dir, parseSegName)
	if err != nil {
		return err
	}
	l.mu.Lock()
	active := l.segStart
	l.mu.Unlock()
	var removed int64
	for i := 0; i+1 < len(starts); i++ {
		if starts[i] >= active || starts[i+1] > pos {
			break
		}
		if err := l.remove(FileWAL, filepath.Join(l.dir, segName(starts[i]))); err != nil {
			return err
		}
		removed++
	}
	if removed > 0 {
		if err := l.syncDir(); err != nil {
			return err
		}
		l.mu.Lock()
		l.ctr.SegmentsRemoved += removed
		l.mu.Unlock()
	}
	return nil
}

// listNums returns the sorted positions parsed from the directory's
// file names by parse, skipping foreign files.
func listNums(dir string, parse func(string) (int64, bool)) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var out []int64
	for _, e := range ents {
		if v, ok := parse(e.Name()); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
