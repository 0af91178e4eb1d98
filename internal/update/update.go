// Package update implements the three atomic update operations of
// Section III / V-C on grammar-compressed binary XML trees — rename,
// insert-before, and delete-subtree — via path isolation, plus reference
// implementations of the same operations on plain trees (used by the
// experiments to validate grammar updates against uncompressed ground
// truth and to replay workloads).
package update

import (
	"fmt"
	"math"

	"repro/internal/grammar"
	"repro/internal/isolate"
	"repro/internal/xmltree"
)

// Op is one atomic update. Pos addresses a node by its preorder index in
// the binary tree val_G(S) at the time the operation is applied.
type Op struct {
	Kind  Kind
	Pos   int64
	Label string            // Rename: the new element label
	Frag  *xmltree.Unranked // Insert: the fragment to insert before Pos
}

// Kind enumerates the update operations.
type Kind uint8

const (
	// Rename relabels the node at Pos (σ ≠ ⊥ and label(u) ≠ ⊥).
	Rename Kind = iota
	// Insert inserts Frag as previous sibling of the node at Pos; if Pos
	// addresses a ⊥ node this is the "insert after the last element /
	// into an empty child list" case.
	Insert
	// Delete removes the subtree rooted at Pos (the element and its
	// descendants; following siblings splice up).
	Delete
)

func (k Kind) String() string {
	switch k {
	case Rename:
		return "rename"
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Cache holds the grammar's size vectors and reference counts across a
// sequence of operations. Path isolation mutates only the start rule, so
// every non-start vector stays valid from op to op
// (internal/isolate/isolate.go); only the start rule's vector is
// refreshed after a mutation, by the op's known node delta instead of
// the O(|G|) full ValSizes pass the per-op path pays. The counts (Refs)
// follow the same ops: each call an isolation unfolds, each call a
// delete drops, and every edge the start rule gains or loses, so |G| is
// exact without a walk and Collect deletes the rules an op stranded
// without a reachability sweep. The cache must be invalidated whenever
// any non-start rule changes — in practice, after recompression (which
// builds a new grammar anyway).
//
// The memo the cache owns is more than the subtree-size store: it also
// carries the persistent isolation frontier (internal/isolate's spine
// index over the explicit sibling spines of the start RHS). ApplyCached
// keeps that index exact by committing every op's node delta to it
// after the mutation, so repeat isolations seek across long unfolded
// chains instead of walking them.
//
// A Cache serves exactly one grammar; Hits/Misses count warm vs cold
// Sizes calls and feed Store.Stats.
type Cache struct {
	sizes *grammar.SizeTable
	refs  *Refs
	memo  *isolate.Memo // subtree sizes + spine index across ops

	// Naive disables the spine index on memos this cache creates, so
	// descents walk every explicit node. Differential tests pin
	// byte-identical output of the indexed and the naive engine with it;
	// it must be set before the first ApplyCached call.
	Naive bool

	Hits   int64 // Sizes calls served from the warm cache
	Misses int64 // Sizes calls that recomputed all vectors

	// fstats accumulates the frontier counters of retired memos
	// (Invalidate/Install drop the memo with the grammar they served).
	fstats isolate.FrontierStats
}

// FrontierStats returns the cache's cumulative spine-index counters —
// retired memos' history plus the live memo's state.
func (c *Cache) FrontierStats() isolate.FrontierStats {
	return c.fstats.AddCounters(c.memo.Frontier())
}

// retireMemo folds the live memo's counters into the cumulative totals
// before the memo is dropped.
func (c *Cache) retireMemo() {
	if c.memo != nil {
		c.fstats = c.fstats.AddCounters(c.memo.Frontier())
		c.fstats.Entries = 0
		c.fstats.Spines = 0
	}
	c.memo = nil
}

// Sizes returns the cached size-vector table, computing it (and the
// reference counts) on first use.
func (c *Cache) Sizes(g *grammar.Grammar) (*grammar.SizeTable, error) {
	if c.sizes != nil {
		c.Hits++
		return c.sizes, nil
	}
	c.Misses++
	sizes, err := g.ValSizes()
	if err != nil {
		return nil, err
	}
	c.sizes = sizes
	c.refs = CountRefs(g)
	return sizes, nil
}

// Peek returns the cached vectors without filling the cache or touching
// the hit counters (nil when cold). It is the read-only accessor for
// callers that hold only a read lock over the owning structure.
func (c *Cache) Peek() *grammar.SizeTable { return c.sizes }

// GrammarSize returns |G| of the grammar the cache serves: exact from
// the counts when warm, one Size walk when cold.
func (c *Cache) GrammarSize(g *grammar.Grammar) int {
	if c.refs == nil {
		return g.Size()
	}
	return c.refs.start + c.refs.rest
}

// Invalidate drops the cached vectors, counts and memo (subtree sizes
// and spine index); the next Sizes call recomputes.
func (c *Cache) Invalidate() {
	c.sizes = nil
	c.refs = nil
	c.retireMemo()
}

// Install hands the cache a precomputed size-vector table and reference
// counts for the grammar it is about to serve, dropping any previous
// state. This is the cache hand-off of the store's asynchronous
// recompression swap: the background goroutine computes the new
// grammar's ValSizes and CountRefs off the write lock and the swap
// installs the result here, so readers and writers never pay an O(|G|)
// warm-up pass under the lock. Counted as neither hit nor miss — the
// work happened, just elsewhere.
func (c *Cache) Install(sizes *grammar.SizeTable, refs *Refs) {
	c.sizes = sizes
	c.refs = refs
	c.retireMemo()
}

// MoveTo hands the cache to a clone of the grammar it served, which
// keeps every rule ID: the counts carry over as they are, the size
// table is copied (its start vector is mutated in place per op, and the
// original stays with whoever holds the old grammar), and the memo is
// retired — its spine index holds node pointers into the old grammar,
// and descents edit through those pointers, so they would mutate the
// old grammar's nodes instead of the clone's.
func (c *Cache) MoveTo(clone *grammar.Grammar) {
	if c.sizes != nil {
		c.sizes = c.sizes.Snapshot(clone.Start)
	}
	c.retireMemo()
}

// RefreshStart recomputes only the start rule's vector from the cached
// callee vectors. Call it after an operation changed val_G(S)'s node
// count by an amount that cannot be applied arithmetically.
func (c *Cache) RefreshStart(g *grammar.Grammar) error {
	if c.sizes == nil {
		return nil
	}
	sv, err := g.RuleValSizes(g.Start, c.sizes)
	if err != nil {
		return err
	}
	c.sizes.Set(g.Start, sv)
	return nil
}

// adjustStartTotal maintains the start rule's cached vector by a known
// node-count delta, avoiding the O(|RHS_S|) re-walk of RefreshStart:
// an insert adds exactly the fragment's binary encoding, a delete
// removes exactly the element and its first-child subtree. The start
// rule has rank 0, so its vector is the single segment Total. Saturated
// states fall back to a full refresh — exactness cannot be recovered
// arithmetically there.
func (c *Cache) adjustStartTotal(g *grammar.Grammar, delta int64) error {
	if c.sizes == nil {
		return nil
	}
	sv := c.sizes.Get(g.Start)
	if sv == nil || len(sv.Seg) != 1 || grammar.Saturated(sv.Total) {
		return c.RefreshStart(g)
	}
	t := sv.Total + delta
	if delta > 0 && t < sv.Total {
		t = math.MaxInt64 // saturate on overflow
	}
	sv.Total = t
	sv.Seg[0] = t
	return nil
}

// Collect deletes the rules the ops since the last Collect stranded —
// every rule whose reference count fell to 0, and the rules only those
// called — and drops their size vectors; it returns the number of rules
// removed. The work is the collected rules' call lists: no live rule is
// visited. Stranded rules are unreachable from the start rule, so they
// are invisible to isolation and queries until then; callers run one
// Collect per batch.
func (c *Cache) Collect(g *grammar.Grammar) int {
	if c.refs == nil {
		return 0
	}
	return c.refs.collect(g, c.sizes)
}

// Stranded reports whether an op stranded rules that Collect has not
// deleted yet.
func (c *Cache) Stranded() bool { return c.refs != nil && len(c.refs.zero) > 0 }

// ApplyCached performs one operation using the shared cache and keeps
// the cache exact afterwards. It never deletes a rule: unfolds and
// deletes can strand rules, and the caller runs one Collect for a whole
// batch.
func ApplyCached(g *grammar.Grammar, op Op, c *Cache) error {
	sizes, err := c.Sizes(g)
	if err != nil {
		return err
	}
	if c.memo == nil {
		c.memo = isolate.NewMemo()
		if c.Naive {
			c.memo.DisableIndex()
		}
	}
	pos, err := isolate.IsolateMemo(g, op.Pos, sizes, c.memo)
	// Every call the descent unfolded is inlined even when it then
	// failed: account for them before anything else.
	for _, id := range c.memo.Unfolded() {
		c.refs.unfold(id, g.Rule(id).Rank)
	}
	if err != nil {
		return err
	}
	switch op.Kind {
	case Rename:
		if pos.Node.Label.IsBottom() {
			return fmt.Errorf("update: rename of ⊥ node at %d", op.Pos)
		}
		id := g.Syms.InternElement(op.Label)
		pos.Node.Label = xmltree.Term(id)
		g.BumpEpoch()
		// Renames (and the isolation unfolding itself) do not change any
		// val size, so the cached start vector — and every spine weight —
		// stays valid.
		return nil
	case Insert:
		if op.Frag == nil {
			return fmt.Errorf("update: insert without fragment")
		}
		// insert(t,u,s): the fragment's right-most ⊥ becomes the subtree
		// currently rooted at u (for u = ⊥ this degenerates to t[u/s]).
		// A fragment of k elements becomes a binary tree of 2k+1 nodes
		// whose right-most ⊥ is replaced by the existing subtree: exactly
		// 2k nodes (and 2k edges of the start rule) join val_G(S) — which
		// is also the fresh chain head's spine weight (itself plus its
		// first-child subtree).
		fragNodes := int64(op.Frag.Nodes())
		sub := op.Frag.BinaryInto(g.Syms, pos.Node)
		pos.Replace(g, sub)
		g.BumpEpoch()
		c.refs.start += int(2 * fragNodes)
		c.memo.CommitInsert(pos, sub, 2*fragNodes)
		return c.adjustStartTotal(g, 2*fragNodes)
	case Delete:
		if pos.Node.Label.IsBottom() {
			return fmt.Errorf("update: delete of ⊥ node at %d", op.Pos)
		}
		// t[u / u.2]: drop the element and its first-child subtree, keep
		// the next-sibling chain — exactly 1 + |val(u.1)| nodes leave, and
		// the calls in the dropped subtree with them.
		removed := grammar.SatAdd(1, c.refs.detach(pos.Node.Children[0], sizes))
		c.memo.CommitDelete(pos, removed)
		pos.Replace(g, pos.Node.Children[1])
		g.BumpEpoch()
		if grammar.Saturated(removed) {
			return c.RefreshStart(g)
		}
		return c.adjustStartTotal(g, -removed)
	}
	return fmt.Errorf("update: unknown op kind %v", op.Kind)
}

// Memo exposes the live isolation memo (nil when naive or not yet
// materialized) so a store can hand it to a frozen grammar generation
// at publish time — readers then build the spine view from it lazily,
// keeping the publish itself allocation-free. Callers must pair it
// with the generation protocol described in isolate's view.go: the
// memo is only safe to read after the generation is pinned shared,
// which guarantees the writer's next mutation retires it first.
func (c *Cache) Memo() *isolate.Memo {
	if c.Naive {
		return nil
	}
	return c.memo
}

// SpineView snapshots the live spine index into an immutable read-only
// view (nil when the index is empty, disabled, or running naive) — the
// navigation accelerator a store publishes alongside each frozen
// grammar generation. Callers must pair it with the generation protocol
// described in isolate's view.go: the view aliases live chunk state and
// is only safe to read while that state is retired from mutation.
func (c *Cache) SpineView() *isolate.SpineView {
	if c.Naive {
		return nil
	}
	return c.memo.View()
}

// Apply performs the operation on the grammar via path isolation. Only
// the start rule is modified, plus the collection of the rules the op
// stranded. The one-shot cache descends naively: the spine index only
// pays when its state persists across operations, so registering spines
// a throwaway cache immediately discards would be pure overhead.
func Apply(g *grammar.Grammar, op Op) error {
	c := Cache{Naive: true}
	defer c.Collect(g)
	return ApplyCached(g, op, &c)
}

// ApplyAll applies a sequence of operations in order. The cache is
// shared across the whole sequence and the stranded rules are collected
// once at the end instead of after every op, so a batch of n ops costs
// one ValSizes pass and one reference count plus what each op edits.
func ApplyAll(g *grammar.Grammar, ops []Op) error {
	var c Cache
	// Also on the error path: ops already applied must not leave
	// stranded rules behind.
	defer c.Collect(g)
	for i, op := range ops {
		if err := ApplyCached(g, op, &c); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// ApplyTree performs the same operation on a plain binary tree (the
// uncompressed reference semantics). It returns the possibly-new root.
func ApplyTree(st *xmltree.SymbolTable, root *xmltree.Node, op Op) (*xmltree.Node, error) {
	node, parent, idx, err := findPreorder(root, op.Pos)
	if err != nil {
		return nil, err
	}
	splice := func(sub *xmltree.Node) {
		if parent == nil {
			root = sub
		} else {
			parent.Children[idx] = sub
		}
	}
	switch op.Kind {
	case Rename:
		if node.Label.IsBottom() {
			return nil, fmt.Errorf("update: rename of ⊥ node at %d", op.Pos)
		}
		node.Label = xmltree.Term(st.InternElement(op.Label))
	case Insert:
		if op.Frag == nil {
			return nil, fmt.Errorf("update: insert without fragment")
		}
		splice(op.Frag.BinaryInto(st, node))
	case Delete:
		if node.Label.IsBottom() {
			return nil, fmt.Errorf("update: delete of ⊥ node at %d", op.Pos)
		}
		splice(node.Children[1])
	default:
		return nil, fmt.Errorf("update: unknown op kind %v", op.Kind)
	}
	return root, nil
}

// ApplyTreeAll applies a sequence of operations to a plain tree.
func ApplyTreeAll(st *xmltree.SymbolTable, root *xmltree.Node, ops []Op) (*xmltree.Node, error) {
	var err error
	for i, op := range ops {
		root, err = ApplyTree(st, root, op)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
	}
	return root, nil
}

func findPreorder(root *xmltree.Node, pos int64) (node, parent *xmltree.Node, idx int, err error) {
	var i int64
	var rec func(n, p *xmltree.Node, ix int) bool
	rec = func(n, p *xmltree.Node, ix int) bool {
		if i == pos {
			node, parent, idx = n, p, ix
			return true
		}
		i++
		for j, c := range n.Children {
			if rec(c, n, j) {
				return true
			}
		}
		return false
	}
	if !rec(root, nil, -1) {
		return nil, nil, 0, fmt.Errorf("update: preorder %d out of range", pos)
	}
	return node, parent, idx, nil
}
