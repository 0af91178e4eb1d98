// Package wal is the durability layer under the store: a per-document
// write-ahead log of update operations plus periodic encoded-grammar
// snapshots, designed so that a crash at any byte boundary recovers to
// exactly the acked prefix of the update stream — no acked op lost, no
// unacked op visible.
//
// # On-disk layout
//
// Every document owns one directory (DocDir derives a filesystem-safe
// name from the document ID) holding two file kinds:
//
//	wal-<start>.log    append-only op segments, <start> = hex of the
//	                   stream position of the segment's first op
//	snap-<pos>.snap    encoded-grammar snapshot covering ops [0, pos)
//
// A segment is a header (magic, version, start position) followed by
// length-prefixed records: uvarint payload length, payload, CRC32C of
// the payload. A record's payload is one committed batch — its stream
// start position, its op count, then the ops in the internal/update
// binary codec. A snapshot file is a header plus a single such framed
// record whose payload is the covered position and the grammar in the
// grammar.Encode format (already hardened against hostile streams).
//
// # Crash tolerance
//
// Appends go through a Writer whose every file mutation is routed
// through an optional Injector, so tests crash the log at precise byte
// boundaries (torn write, fsync failure, mid-truncate) instead of
// hoping a kill lands somewhere interesting. Recovery (Recover)
// tolerates what those crashes leave behind: it loads the newest
// snapshot that passes CRC + decode, falls back to the previous one if
// the newest is corrupt, replays records while they chain contiguously
// from the snapshot position, and truncates at the first bad CRC,
// short record, or gap — never failing open past corruption. Snapshot
// rolling retains the previous snapshot and the segments it needs, so
// the fallback path always has full op coverage.
package wal

import (
	"encoding/base32"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Errors of the durability layer.
var (
	// ErrInjected is the failure a fault-injection plan reports; every
	// later operation on the same plan keeps failing with it, like a
	// process that crashed.
	ErrInjected = errors.New("wal: injected fault")
	// ErrNoSnapshot reports a document directory with no loadable
	// snapshot: recovery has no base state and must fail closed.
	ErrNoSnapshot = errors.New("wal: no valid snapshot")
	// ErrLogBroken reports an append on a Log whose earlier write or
	// fsync failed; the in-memory document has diverged from disk and
	// only reopening recovers.
	ErrLogBroken = errors.New("wal: log broken by earlier write failure")
)

// FsyncPolicy selects when appended batches are fsynced.
type FsyncPolicy int

const (
	// FsyncBatch fsyncs after every appended batch, before the ack:
	// an acked batch survives any crash. The durable default.
	FsyncBatch FsyncPolicy = iota
	// FsyncOff never fsyncs on the append path (the OS flushes when it
	// pleases); Close still syncs. The bench baseline for the fsync tax.
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Options tunes a Log. The zero value selects the defaults below.
type Options struct {
	// Fsync is the append-path fsync policy (default FsyncBatch).
	Fsync FsyncPolicy
	// SegmentBytes rolls the active segment once it holds at least
	// this many bytes (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// Injector, when non-nil, intercepts every file mutation for
	// fault-injection tests. Production logs leave it nil.
	Injector Injector
}

// DefaultSegmentBytes is the segment roll size; see Options.
const DefaultSegmentBytes = 1 << 20

// Format bounds. Like the grammar decoder's, these exist so a few
// corrupt bytes can never demand a giant allocation: a declared length
// past its bound is treated exactly like a bad CRC.
const (
	// maxRecordBytes bounds one framed record's payload.
	maxRecordBytes = 1 << 26
)

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

// FileKind classifies the file an injected operation targets.
type FileKind uint8

const (
	// FileWAL is an op segment.
	FileWAL FileKind = iota
	// FileSnapshot is a snapshot file (including its temp stage).
	FileSnapshot
)

// OpKind classifies the intercepted file operation.
type OpKind uint8

const (
	// OpWrite is a data write; the injector may shorten it (torn write).
	OpWrite OpKind = iota
	// OpSync is an fsync of a file or directory.
	OpSync
	// OpRename is the snapshot temp-file publish.
	OpRename
	// OpRemove is a segment or stale-snapshot deletion (truncation).
	OpRemove
)

// Injector intercepts the log's file mutations for fault-injection
// tests. For OpWrite, p is the bytes about to be written and the
// returned n is how many of them actually reach the file — returning
// n < len(p) together with an error leaves a torn prefix on disk,
// exactly like a crash mid-write. For the other ops p is nil and n is
// ignored; a non-nil error aborts the operation before it happens.
type Injector interface {
	Inject(file FileKind, op OpKind, p []byte) (n int, err error)
}

// CrashPlan is the standard Injector: budgets of allowed operations,
// after which the plan trips and everything fails with ErrInjected —
// the moment of the simulated kill. Construct with NewCrashPlan and
// tighten the one budget under test; a tripped plan never un-trips, so
// the code under test behaves like a process that died mid-call.
type CrashPlan struct {
	mu sync.Mutex
	// WALWriteBytes is how many segment bytes may be written before
	// the plan trips mid-write (torn record). Negative = unlimited.
	WALWriteBytes int64
	// SnapshotWriteBytes is the same budget for snapshot files
	// (mid-snapshot crash). Negative = unlimited.
	SnapshotWriteBytes int64
	// Syncs is how many fsyncs succeed before one fails (fsync-error
	// crash). Negative = unlimited.
	Syncs int
	// MetaOps is how many renames/removes succeed before one fails
	// (mid-truncate / mid-publish crash). Negative = unlimited.
	MetaOps int

	tripped bool
}

// NewCrashPlan returns a plan with every budget unlimited; set the one
// under test before handing it to Options.Injector.
func NewCrashPlan() *CrashPlan {
	return &CrashPlan{WALWriteBytes: -1, SnapshotWriteBytes: -1, Syncs: -1, MetaOps: -1}
}

// Tripped reports whether the simulated crash has happened.
func (c *CrashPlan) Tripped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tripped
}

// Inject implements Injector.
func (c *CrashPlan) Inject(file FileKind, op OpKind, p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tripped {
		return 0, ErrInjected
	}
	switch op {
	case OpWrite:
		budget := &c.WALWriteBytes
		if file == FileSnapshot {
			budget = &c.SnapshotWriteBytes
		}
		if *budget < 0 {
			return len(p), nil
		}
		if int64(len(p)) <= *budget {
			*budget -= int64(len(p))
			return len(p), nil
		}
		n := int(*budget)
		*budget = 0
		c.tripped = true
		return n, ErrInjected
	case OpSync:
		if c.Syncs < 0 {
			return 0, nil
		}
		if c.Syncs > 0 {
			c.Syncs--
			return 0, nil
		}
		c.tripped = true
		return 0, ErrInjected
	case OpRename, OpRemove:
		if c.MetaOps < 0 {
			return 0, nil
		}
		if c.MetaOps > 0 {
			c.MetaOps--
			return 0, nil
		}
		c.tripped = true
		return 0, ErrInjected
	}
	return len(p), nil
}

// docDirPrefix + base32(id) names a document's directory. Base32
// (lowercase, unpadded) is reversible, case-collision-free on
// case-insensitive filesystems, and never produces path separators or
// dotfiles — any document ID is safe.
const docDirPrefix = "doc-"

var docDirEnc = base32.NewEncoding("abcdefghijklmnopqrstuvwxyz234567").WithPadding(base32.NoPadding)

// DocDir returns the directory name serving document id.
func DocDir(id string) string {
	return docDirPrefix + docDirEnc.EncodeToString([]byte(id))
}

// ParseDocDir recovers the document ID from a directory name produced
// by DocDir; ok is false for foreign directory names.
func ParseDocDir(name string) (id string, ok bool) {
	if !strings.HasPrefix(name, docDirPrefix) {
		return "", false
	}
	raw, err := docDirEnc.DecodeString(strings.TrimPrefix(name, docDirPrefix))
	if err != nil {
		return "", false
	}
	return string(raw), true
}
