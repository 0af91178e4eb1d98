// Package sltgrammar is the public API of this reproduction of
//
//	Böttcher, Hartel, Jacobs, Maneth:
//	"Incremental Updates on Compressed XML", ICDE 2016.
//
// It provides grammar-compressed XML document trees (straight-line
// linear context-free tree grammars) that support the paper's three
// atomic update operations — rename, insert-before, delete-subtree —
// directly on the compressed representation, and two compressors:
//
//   - TreeRePair (the paper's baseline [3]): RePair compression of a
//     tree into an SLCF grammar, and
//   - GrammarRePair (the paper's contribution): RePair compression
//     executed directly on a grammar, without decompressing, so a
//     grammar degraded by updates can be recompressed in time and space
//     proportional to the grammar — not the (potentially exponentially
//     larger) tree.
//
// # Quick start
//
//	u, _ := sltgrammar.ParseXML(file)             // structure-only XML
//	doc  := sltgrammar.Encode(u)                  // binary tree encoding
//	g, _ := sltgrammar.Compress(doc)              // TreeRePair
//	_ = sltgrammar.Rename(g, 7, "chapter")        // update in place
//	g2, st := sltgrammar.Recompress(g)            // GrammarRePair
//	fmt.Println(sltgrammar.Size(g2), st.Rounds)
//
// # Serving updates: Store
//
// For a long-lived document under a stream of updates, wrap the grammar
// in a Store instead of calling Apply/Recompress by hand. The Store
// caches size vectors across operations (path isolation then costs
// O(|RHS_S|) per op instead of O(|G|)), garbage-collects once per batch,
// recompresses automatically when the grammar has degraded past a
// configurable ratio of its last compressed size (self-tuning: the
// trigger backs off while recompression isn't paying), and serves
// readers from immutable published generations: Snapshot is a
// lock-free pointer grab (zero allocations, never invalidated by later
// writes), and cursors and aggregate queries run on the pinned
// generation without blocking the writer:
//
//	st := sltgrammar.NewStore(g)                  // takes ownership of g
//	_ = st.ApplyAll(ops)                          // batched updates
//	n, _ := st.CountLabel("item")                 // served under RLock
//	cur, _ := st.Cursor()                         // over a safe snapshot
//	fmt.Printf("%+v\n", st.Stats())               // ops, cache hits, |G|…
//
// Nodes are addressed by preorder index in the binary
// first-child/next-sibling encoding (Fig. 1 of the paper), in which each
// element has rank 2 and missing children are explicit ⊥ leaves.
package sltgrammar

import (
	"io"
	"net"

	"repro/internal/core"
	"repro/internal/grammar"
	"repro/internal/isolate"
	"repro/internal/navigate"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/treerepair"
	"repro/internal/udc"
	"repro/internal/update"
	"repro/internal/wal"
	"repro/internal/xmltree"
)

// Re-exported core types. They are aliases, so values flow freely between
// the public API and the internal packages.
type (
	// Unranked is a plain unranked XML element tree (labels + children).
	Unranked = xmltree.Unranked
	// Document is a binary-encoded XML structure tree plus its symbol
	// table.
	Document = xmltree.Document
	// Grammar is a straight-line linear context-free tree grammar.
	Grammar = grammar.Grammar
	// Op is one atomic update operation (rename / insert / delete).
	Op = update.Op
	// CompressStats reports a GrammarRePair run (rounds, intermediate
	// sizes, final size).
	CompressStats = core.Stats
	// TreeRePairStats reports a TreeRePair run.
	TreeRePairStats = treerepair.Stats
	// UDCStats reports an update-decompress-compress run.
	UDCStats = udc.Stats
	// Cursor is a DOM-style read-only position in the derived tree,
	// navigating the grammar without decompression.
	Cursor = navigate.Cursor
	// Store is the long-lived dynamic-document engine: cached size
	// vectors, batched garbage collection, self-tuning recompression,
	// and generational zero-copy reads — Snapshot returns the immutable
	// published generation (a pointer grab, never a deep copy), the
	// writer clones lazily only when a pinned generation would otherwise
	// be mutated. See repro/internal/store for the lifecycle.
	Store = store.Store
	// StoreConfig tunes a Store's recompression policy (with Async,
	// recompression moves off the write lock) and, via MemoryBudget on a
	// ShardedStore, the fleet's resident-memory tier.
	StoreConfig = store.Config
	// StoreStats is a snapshot of a Store: its embedded Counters (ops,
	// batches, recompressions, stalls, GC, caches, isolation,
	// WAL, snapshots, recovery) plus gauges such as |G| and the
	// resident bytes.
	StoreStats = store.Stats
	// ShardedStore serves many documents at once: IDs are hashed across
	// shards, each shard owning its documents' Stores plus one write
	// lock that serializes that shard's update batches (applied on the
	// caller's goroutine), so updates to documents in different shards
	// never contend. With StoreConfig.MemoryBudget set,
	// the fleet runs memory-tiered: when resident bytes exceed the
	// budget, cold documents (LRU by last write or read) evict to their
	// encoded grammar bytes — or, durably, to disk alone — and
	// transparently rehydrate on their next access.
	ShardedStore = store.Sharded
	// ShardedStats embeds the same Counters as StoreStats, summed across
	// all documents of a ShardedStore, evicted ones included, plus the
	// fleet gauges: Resident/Evicted document counts, Size,
	// ResidentBytes, BrokenDocs, and the Evictions/Hydrations traffic of
	// the memory tier.
	ShardedStats = store.ShardedStats
	// Durability makes a Store or ShardedStore durable: set it on a
	// StoreConfig and every acked update batch is appended to a
	// per-document write-ahead log (per the fsync policy) before the
	// write returns, with encoded-grammar snapshots rolling in the
	// background to bound recovery replay. See repro/internal/wal for
	// the on-disk format and crash-tolerance contract.
	Durability = store.Durability
	// FsyncPolicy selects when the write-ahead log reaches stable
	// storage: FsyncBatch (every acked batch survives any crash) or
	// FsyncOff (the OS decides; a clean Close still loses nothing).
	FsyncPolicy = wal.FsyncPolicy
	// Server is the network serving front-end over a ShardedStore: a
	// CRC-framed binary wire protocol (the write-ahead log's record
	// framing, carrying the update-op codec for writes and the grammar
	// codec for snapshot reads) over TCP, one goroutine per connection,
	// hostile-input hardened exactly like the WAL decoder. See
	// repro/internal/server for the frame and message formats.
	//
	// The server is fault-tolerant: per-connection read/write/idle
	// deadlines shed wedged peers (tuned via ServeConfig), and Drain
	// performs graceful handoff — stop accepting, GoAway idle
	// connections, finish and flush in-flight batches, force-sync the
	// WAL tails, close. Write backpressure is the shard lock: each
	// connection dispatches one request at a time, and at most one
	// batch per shard applies at once.
	Server = server.Server
	// ServeConfig tunes a Server's deadlines: ReadTimeout,
	// WriteTimeout, IdleTimeout. The zero value selects defaults;
	// negative values disable a limit.
	ServeConfig = server.Config
	// ServerClient is the synchronous wire client of a Server: Open,
	// Apply (acked update batches), PointQuery, CountLabel,
	// Snapshot/SnapshotBytes, Quiesce. One request in flight per
	// client; open one per worker for parallel load. The first
	// transport fault latches: later calls fail fast and the caller
	// reconnects (or uses a RetryClient, which does it automatically).
	ServerClient = server.Client
	// RetryClient is the fault-tolerant wire client: reconnect with
	// jittered exponential backoff, per-call deadlines, and
	// exactly-once Apply — every batch is stamped with a per-document
	// sequence number, so a batch retried after a lost ack is applied
	// once and acked twice, never applied twice. See DialRetry.
	RetryClient = server.RetryClient
	// RetryConfig tunes a RetryClient (address, per-call timeout,
	// attempt cap, backoff, jitter seed).
	RetryConfig = server.RetryConfig
	// RemoteError is an application error reported by the server over a
	// healthy connection — the one error class a retry layer must not
	// resend, because the server answered definitively.
	RemoteError = server.RemoteError
)

// Fsync policies for Durability.
const (
	FsyncBatch = wal.FsyncBatch
	FsyncOff   = wal.FsyncOff
)

// Errors of the multi-document layer.
var (
	// ErrUnknownDoc reports an operation on a document ID that was never
	// opened (or was dropped).
	ErrUnknownDoc = store.ErrUnknownDoc
	// ErrStoreClosed reports a write against a closed ShardedStore.
	ErrStoreClosed = store.ErrClosed
)

// ErrSaturated is returned by Elements (and Store.Elements) when the
// derived tree's node count exceeds the int64 range — exponentially
// compressing grammars saturate rather than overflow.
var ErrSaturated = grammar.ErrSaturated

// NewStore wraps a grammar in a Store, taking ownership of it. Pass a
// StoreConfig to tune the recompression policy; the default triggers
// GrammarRePair when the grammar has grown 1.5× past its last compressed
// size.
func NewStore(g *Grammar, cfg ...StoreConfig) *Store { return store.New(g, cfg...) }

// NewShardedStore returns a multi-document store with the given shard
// count (shards <= 0 selects GOMAXPROCS); every document opened in it
// uses cfg. Open registers documents, ApplyAll applies update batches
// under the owning shard's write lock, Get serves reads. cfg.MemoryBudget > 0
// bounds the fleet's resident bytes by evicting cold documents to
// their encoded form (they rehydrate on access). Call Close when done
// ingesting (and Quiesce first when asynchronous recompressions must
// settle):
//
//	ss := sltgrammar.NewShardedStore(8, sltgrammar.StoreConfig{Async: true})
//	defer ss.Close()
//	_, _ = ss.Open("doc-1", g1)
//	_ = ss.ApplyAll("doc-1", ops)       // serialized per shard
//	st, _ := ss.Get("doc-1")            // full read API of a Store
//	n, _ := st.CountLabel("item")
//	_ = n
func NewShardedStore(shards int, cfg ...StoreConfig) *ShardedStore {
	return store.NewSharded(shards, cfg...)
}

// OpenShardedStore reopens a durable multi-document fleet from disk:
// every document directory under cfg.Durability.Dir is recovered —
// newest valid snapshot plus write-ahead-log tail replay, truncating
// any torn tail a crash left behind — and registered under its
// original ID. The directory may be empty or absent (a fresh fleet).
// cfg.Durability must be set; documents opened afterwards with Open
// are created durable in the same directory.
func OpenShardedStore(shards int, cfg StoreConfig) (*ShardedStore, error) {
	return store.OpenSharded(shards, cfg)
}

// Serve starts serving ss over ln (typically a TCP listener) and
// returns immediately. The optional ServeConfig tunes connection
// deadlines (omitted = defaults). The returned
// Server owns the listener; for a rolling restart call Drain, which
// stops accepting, tells idle connections to go away, lets in-flight
// batches finish and flush their acks, and syncs the WAL tails so
// every acked write survives the subsequent kill. Close is the
// zero-grace variant. The ShardedStore itself stays open and is still
// the caller's to Close:
//
//	ln, _ := net.Listen("tcp", "127.0.0.1:0")
//	srv := sltgrammar.Serve(ln, ss)
//	defer srv.Close()
//	cl, _ := sltgrammar.DialServer(srv.Addr().String())
//	_ = cl.Apply("doc-1", ops)          // acked update batch
//	n, _ := cl.CountLabel("doc-1", "item")
//	_ = n
func Serve(ln net.Listener, ss *ShardedStore, cfg ...ServeConfig) *Server {
	return server.Serve(ln, ss, cfg...)
}

// DialServer connects a ServerClient to a Server's TCP address.
func DialServer(addr string) (*ServerClient, error) { return server.Dial(addr) }

// DialRetry returns a RetryClient for cfg.Addr. The connection is
// established lazily and re-established (with jittered exponential
// backoff) after any transport fault; Apply batches are stamped with
// per-document sequence numbers so a retry after a lost ack is deduped
// by the server rather than applied twice.
func DialRetry(cfg RetryConfig) (*RetryClient, error) { return server.DialRetry(cfg) }

// NewCursor returns a cursor at the root of the derived tree. Every move
// costs time proportional to the grammar's nesting depth, never to the
// (potentially exponentially larger) tree.
func NewCursor(g *Grammar) (*Cursor, error) { return navigate.NewCursor(g) }

// CountLabel counts occurrences of an element label in the derived tree
// without decompressing (usage-weighted one-pass query).
func CountLabel(g *Grammar, label string) (float64, error) {
	return navigate.CountLabel(g, label)
}

// LabelHistogram returns the occurrence count of every element label in
// the derived tree, computed in one pass over the grammar.
func LabelHistogram(g *Grammar) (map[string]float64, error) {
	return navigate.LabelHistogram(g)
}

// Update-operation constructors.

// RenameOp relabels the node at preorder position pos to label.
func RenameOp(pos int64, label string) Op {
	return Op{Kind: update.Rename, Pos: pos, Label: label}
}

// InsertOp inserts the fragment before the node at pos; inserting at a ⊥
// node appends after the last sibling (or into an empty child list).
func InsertOp(pos int64, frag *Unranked) Op {
	return Op{Kind: update.Insert, Pos: pos, Frag: frag}
}

// DeleteOp deletes the subtree rooted at pos.
func DeleteOp(pos int64) Op {
	return Op{Kind: update.Delete, Pos: pos}
}

// ParseXML reads structure-only XML (all non-element content is
// discarded, as in the paper's datasets).
func ParseXML(r io.Reader) (*Unranked, error) { return xmltree.ParseXML(r) }

// WriteXML serializes an unranked tree as structure-only XML.
func WriteXML(w io.Writer, u *Unranked) error { return xmltree.WriteXML(w, u) }

// NewElement builds an unranked element node.
func NewElement(label string, children ...*Unranked) *Unranked {
	return xmltree.NewUnranked(label, children...)
}

// Encode converts an unranked tree to its binary first-child/next-sibling
// encoding.
func Encode(u *Unranked) *Document { return u.Binary() }

// Decode converts a binary document back to the unranked element tree.
func Decode(d *Document) (*Unranked, error) { return d.ToUnranked() }

// Options configures the compressors.
type Options struct {
	// MaxRank is the paper's k_in: the maximum number of parameters a
	// digram-replacement rule may take. 0 means the default of 4.
	MaxRank int
	// NoOptimize disables the fragment-export optimization of
	// GrammarRePair (Algorithm 8); used by the Fig. 3 experiment.
	NoOptimize bool
}

// Compress runs TreeRePair on a document, producing an SLCF grammar that
// derives exactly the document's binary tree.
func Compress(doc *Document, opt ...Options) (*Grammar, *TreeRePairStats) {
	o := first(opt)
	return treerepair.Compress(doc, treerepair.Options{MaxRank: o.MaxRank})
}

// CompressTreeGR runs GrammarRePair on the document's tree (the paper's
// "GrammarRePair applied to trees" mode).
func CompressTreeGR(doc *Document, opt ...Options) (*Grammar, *CompressStats) {
	o := first(opt)
	return core.CompressDocument(doc, core.Options{MaxRank: o.MaxRank, NoOptimize: o.NoOptimize})
}

// Recompress runs GrammarRePair on a grammar — the paper's contribution:
// the result derives the same tree but is recompressed as if from
// scratch, without ever materializing the tree. It only reads g and is
// safe for concurrent use.
func Recompress(g *Grammar, opt ...Options) (*Grammar, *CompressStats) {
	o := first(opt)
	return core.Compress(g, core.Options{MaxRank: o.MaxRank, NoOptimize: o.NoOptimize})
}

// UDCRecompress is the paper's baseline: decompress the grammar to its
// tree (bounded by maxNodes if > 0) and compress the tree from scratch
// with TreeRePair.
func UDCRecompress(g *Grammar, maxNodes int, opt ...Options) (*Grammar, *UDCStats, error) {
	o := first(opt)
	return udc.Recompress(g, treerepair.Options{MaxRank: o.MaxRank}, maxNodes)
}

// Decompress expands a grammar back to a document. maxNodes > 0 bounds
// the expansion (grammars can compress exponentially).
func Decompress(g *Grammar, maxNodes int) (*Document, error) {
	return udc.Decompress(g, maxNodes)
}

// Apply performs one update operation on the compressed grammar via path
// isolation (only the start rule is modified).
func Apply(g *Grammar, op Op) error { return update.Apply(g, op) }

// ApplyAll performs a sequence of update operations.
func ApplyAll(g *Grammar, ops []Op) error { return update.ApplyAll(g, ops) }

// Rename relabels the node at preorder position pos.
func Rename(g *Grammar, pos int64, label string) error {
	return update.Apply(g, RenameOp(pos, label))
}

// InsertBefore inserts frag before the node at pos.
func InsertBefore(g *Grammar, pos int64, frag *Unranked) error {
	return update.Apply(g, InsertOp(pos, frag))
}

// DeleteSubtree deletes the subtree rooted at pos.
func DeleteSubtree(g *Grammar, pos int64) error {
	return update.Apply(g, DeleteOp(pos))
}

// EncodeGrammar persists a grammar in a compact binary format, so
// compressed documents can be stored and shipped at grammar size.
func EncodeGrammar(w io.Writer, g *Grammar) error { return grammar.Encode(w, g) }

// DecodeGrammar reads a grammar written by EncodeGrammar and validates it.
func DecodeGrammar(r io.Reader) (*Grammar, error) { return grammar.Decode(r) }

// Size returns |G|, the paper's grammar size measure (summed edge count
// of all right-hand sides).
func Size(g *Grammar) int { return g.Size() }

// TreeSize returns the node count of the tree the grammar derives,
// computed without expansion (it may overflow into saturation for
// exponentially compressing grammars).
func TreeSize(g *Grammar) (int64, error) { return g.ValNodeCount() }

// Elements returns the number of element nodes of the encoded document,
// or ErrSaturated when the derived tree exceeds the int64 range (an
// exact count would be bogus).
func Elements(g *Grammar) (int64, error) { return isolate.NonBottomCount(g) }

// Equal reports whether two grammars derive the same tree. It expands
// both (bounded by maxNodes if > 0), so use it on moderate documents or
// with a budget.
func Equal(a, b *Grammar, maxNodes int) (bool, error) {
	ta, err := a.Expand(maxNodes)
	if err != nil {
		return false, err
	}
	tb, err := b.Expand(maxNodes)
	if err != nil {
		return false, err
	}
	return xmltree.Equal(ta, tb), nil
}

func first(opt []Options) Options {
	if len(opt) > 0 {
		return opt[0]
	}
	return Options{}
}
