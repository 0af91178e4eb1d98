// Package isolate implements path isolation (Section III-A): making the
// node at a given preorder position of val_G(S) terminally available in
// the start rule's right-hand side by unfolding the (unique) derivation
// path to it, using the precomputed size vectors size(A, 0..k).
//
// Lemma 1 guarantees |iso(G,u)| ≤ 2·|G| because every production is
// applied at most once.
package isolate

import (
	"fmt"

	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// Position locates an isolated node inside the start rule's right-hand
// side: the node itself, its parent (nil if it is the RHS root), and its
// child index within the parent.
type Position struct {
	Node   *xmltree.Node
	Parent *xmltree.Node
	Index  int
}

// Replace splices a new subtree into the isolated position and returns it.
func (p Position) Replace(g *grammar.Grammar, sub *xmltree.Node) *xmltree.Node {
	if p.Parent == nil {
		g.StartRule().RHS = sub
	} else {
		p.Parent.Children[p.Index] = sub
	}
	return sub
}

// Memo carries the persistent per-document descent state across
// isolations: memoized val sizes of start-rule subtrees, and the spine
// index of frontier.go — the order-statistic index over explicit
// sibling spines that turns the linear walk down a long unfolded chain
// into a chunk-skipping seek.
//
// Size entries are valid as long as the node's subtree (and every rule
// it calls) is unchanged; Isolate evicts exactly the nodes on its
// derivation path — the ancestors of the mutation the caller is about
// to make — so off-path entries survive from operation to operation and
// repeat isolations stop re-walking the same unchanged sibling
// subtrees. Spine entries are exact weights maintained structurally by
// the CommitInsert/CommitDelete hooks. The owner must drop the memo
// whenever a non-start rule changes (update.Cache clears it together
// with the size vectors).
//
// Storage is a dense slice indexed through Node.Aux (each registered
// node is stamped with its slot) instead of a pointer-keyed map, so the
// per-descent-step probes on the isolation hot path do no hashing. A
// slot speaks for a node only while entries[n.Aux].self == n — stale Aux
// values from other owners (the compressor's editor uses the same
// scratch field) fail that check and simply re-register. One slot holds
// either a memoized size or a spine position, never both: a spine
// node's subtree size changes with every op that lands beyond it (the
// very walks the index skips no longer evict it), so only its
// structurally maintained weight may be trusted.
type Memo struct {
	entries []memoEntry
	spines  []*spine

	// Per-descent scratch, reused so the indexed descent allocates
	// nothing in steady state.
	runN      []*xmltree.Node // current naively walked sibling run
	runW      []int64         // exact weights of that run
	crossings []*xmltree.Node // indexed ancestors the descent exits through
	extend    *spine          // spine the descent exhausted just before the run
	extendAt  *xmltree.Node   // node where the naive continuation began

	// unfolded lists the callee of every call the last descent inlined,
	// in order, for the owner's reference counts (see Unfolded).
	unfolded []int32

	tick    int64 // descents started; the cold clock of chunk.touch
	noIndex bool  // naive descent (differential tests / baselines)

	stats FrontierStats
}

// memoEntry is one slot of the dense Aux-indexed table. ck == nil: a
// plain memoized subtree size in val. ck != nil: the node is spine
// entry (ck, off) and val is meaningless.
type memoEntry struct {
	self *xmltree.Node // owner check; nil = evicted slot (reusable)
	val  int64
	ck   *chunk
	off  int32
}

// Unfolded returns the rule ID of every call the last IsolateMemo on
// this memo unfolded, in order (valid until the next descent). Each
// unfold replaced one call of that rule in the start rule by a copy of
// its body, calls included.
func (m *Memo) Unfolded() []int32 {
	if m == nil {
		return nil
	}
	return m.unfolded
}

func (m *Memo) noteUnfold(id int32) {
	if m != nil {
		m.unfolded = append(m.unfolded, id)
	}
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{} }

// memoLimit bounds the slot table: entries for subtrees that updates
// have detached keep their nodes alive, so an unbounded table would be
// a leak on delete-heavy streams. Past the limit the table (and with it
// every spine) is simply rebuilt.
const memoLimit = 1 << 18

func (m *Memo) get(n *xmltree.Node) (int64, bool) {
	if m == nil {
		return 0, false
	}
	if a := n.Aux; uint64(a) < uint64(len(m.entries)) {
		if e := &m.entries[a]; e.self == n && e.ck == nil {
			return e.val, true
		}
	}
	return 0, false
}

func (m *Memo) put(n *xmltree.Node, v int64) {
	if a := n.Aux; uint64(a) < uint64(len(m.entries)) {
		if e := &m.entries[a]; e.self == n {
			if e.ck == nil {
				e.val = v
			}
			// Spine entries never hold a size: ops that land beyond a
			// spine node skip it instead of evicting it, so a memoized
			// size there would go stale silently.
			return
		}
		if e := &m.entries[a]; e.self == nil {
			// A slot a previous eviction freed: no live node points here
			// through a passing self check.
			e.self = n
			e.val = v
			e.ck = nil
			return
		}
	}
	if len(m.entries) >= memoLimit {
		// Rebuild: a full table is mostly entries for subtrees that
		// deletes detached — dropping them releases the pinned nodes
		// and makes room for the live working set again. Spines cannot
		// survive the rebuild (their slots die with it); descents
		// re-register them.
		m.resetSlots()
	}
	n.Aux = int32(len(m.entries))
	m.entries = append(m.entries, memoEntry{self: n, val: v})
}

// evict invalidates n's memoized size (a derivation-path ancestor about
// to go stale); the slot is reused by a later put. Spine entries are
// untouched — their weights are maintained structurally, not by path
// eviction.
func (m *Memo) evict(n *xmltree.Node) {
	if m == nil {
		return
	}
	if a := n.Aux; uint64(a) < uint64(len(m.entries)) {
		if e := &m.entries[a]; e.self == n && e.ck == nil {
			e.self = nil
		}
	}
}

// memoMinSubtree is the smallest subtree val size worth an interior memo
// entry. Memoizing every walked node would churn the bounded memo on the
// huge flat sibling chains of weblog-shaped documents; entries below the
// threshold save less than they cost to store.
const memoMinSubtree = 8

// subtreeSizeWithin resolves a child's val size for descent routing: a
// memo hit is exact; otherwise the walk aborts as soon as the size
// provably exceeds limit (the remaining preorder offset) — the caller
// descends into the child then, and an exact size is never needed. Only
// exact sizes are memoized; an aborted child is the descent target and
// would be evicted as a path node anyway.
//
// The walk itself is memo-aware in both directions: it cuts at interior
// nodes whose subtree size is already memoized (or that head an indexed
// spine, whose weight sums are exact), and it memoizes the interior
// subtrees it completes. Successive isolations on a
// repeatedly-unfolded region (the exponential-corpus workload: every op
// walks fresh unfold material around a drifting position) then re-walk
// only the frontier that actually changed, not the whole region.
func subtreeSizeWithin(c *xmltree.Node, sizes *grammar.SizeTable, memo *Memo, limit int64) (int64, bool) {
	if memo == nil {
		return grammar.SubtreeValSizeWithin(c, sizes, limit)
	}
	// walkWithinMemo probes the memo for c itself first, so no separate
	// lookup here.
	acc, ok := walkWithinMemo(c, sizes, memo, limit, 0)
	if ok && acc < memoMinSubtree {
		// The walk memoizes completed subtrees from the interior
		// threshold up; the routing result itself is worth an entry even
		// below it — the same child is re-probed on every later isolation
		// that passes its parent.
		memo.put(c, acc)
	}
	return acc, ok
}

// walkWithinMemo is SubtreeValSizeWithin with memo cuts and interior
// memoization; acc is the running count carried through the recursion
// (no closure, no allocation). Returns (count, count ≤ limit).
func walkWithinMemo(n *xmltree.Node, sizes *grammar.SizeTable, memo *Memo, limit, acc int64) (int64, bool) {
	if v, ok := memo.get(n); ok {
		acc = grammar.SatAdd(acc, v)
		return acc, acc <= limit
	}
	if ck, off, ok := memo.spineAt(n); ok {
		// An indexed spine sums in O(#chunks): every entry's weight is
		// its node plus its first-child subtree, so the walk resumes at
		// the chain continuation after the last entry.
		sum, tail := memo.suffixSum(ck, off)
		acc = grammar.SatAdd(acc, sum)
		if acc > limit {
			return acc, false
		}
		return walkWithinMemo(tail, sizes, memo, limit, acc)
	}
	var self int64 = 1
	if n.Label.Kind == xmltree.Nonterminal {
		self = sizes.Get(n.Label.ID).Total
	}
	sub := self // val size of n's subtree alone
	acc = grammar.SatAdd(acc, self)
	if acc > limit {
		return acc, false
	}
	for _, c := range n.Children {
		before := acc
		var ok bool
		if acc, ok = walkWithinMemo(c, sizes, memo, limit, acc); !ok {
			return acc, false
		}
		sub = grammar.SatAdd(sub, acc-before)
	}
	if sub >= memoMinSubtree {
		memo.put(n, sub)
	}
	return acc, true
}

// Isolate unfolds the grammar along the derivation path to the node with
// the given preorder index (0-based) of val_G(S), mutating only the start
// rule, and returns the now-explicit terminal node. Size vectors may be
// passed in when the caller already computed them (they are valid as long
// as no rule other than the start rule changed); pass nil to compute.
func Isolate(g *grammar.Grammar, preorder int64, sizes *grammar.SizeTable) (Position, error) {
	return IsolateMemo(g, preorder, sizes, nil)
}

// IsolateMemo is Isolate with the persistent descent state shared
// across calls; see Memo for the invalidation contract. With a memo the
// descent both reuses memoized subtree sizes and seeks across indexed
// sibling spines instead of walking them, and it records the indexed
// ancestors of the target so the caller can commit the op's node delta
// (Memo.CommitInsert / Memo.CommitDelete) after mutating.
func IsolateMemo(g *grammar.Grammar, preorder int64, sizes *grammar.SizeTable, memo *Memo) (Position, error) {
	if memo != nil {
		memo.unfolded = memo.unfolded[:0]
	}
	if sizes == nil {
		var err error
		sizes, err = g.ValSizes()
		if err != nil {
			return Position{}, err
		}
	}
	total := sizes.Get(g.Start).Total
	if preorder < 0 || preorder >= total {
		return Position{}, fmt.Errorf("isolate: preorder %d out of range [0,%d)", preorder, total)
	}
	s := g.StartRule()
	var parent *xmltree.Node
	idx := 0
	node := s.RHS
	rem := preorder
	memo.beginDescent()
	indexed := memo != nil && !memo.noIndex
	for {
		// Every node on the derivation path is an ancestor of the
		// mutation the caller makes next: its memoized size is about to
		// go stale, so evict it here (every path node passes through
		// this loop head exactly when it becomes current). Spine entries
		// on the path keep their slots — their weights are adjusted by
		// the commit hooks instead.
		memo.evict(node)
		if node.Label.Kind == xmltree.Terminal && rem == 0 {
			memo.flushRun(nil)
			return Position{Node: node, Parent: parent, Index: idx}, nil
		}
		if indexed {
			if ck, off, ok := memo.spineAt(node); ok {
				memo.flushRun(node)
				memo.stats.Jumps++
				eck, eoff, local, found := memo.seek(ck, off, rem)
				if !found {
					// Spine exhausted: continue at the chain
					// continuation; a following naive run extends
					// this spine.
					last := eck.nodes[eoff]
					li := chainChild(last)
					parent, idx, node = last, li, last.Children[li]
					rem = local
					memo.extend, memo.extendAt = eck.sp, node
					continue
				}
				target := eck.nodes[eoff]
				if target.Label.Kind == xmltree.Nonterminal {
					// The target offset falls before this call's
					// continuation (in its body or an earlier argument):
					// the call is about to be unfolded or entered, so it
					// leaves the index and the spine splits around it.
					// The naive call logic below takes over at the node.
					p, ok := memo.pred(eck, eoff)
					memo.removeSplit(eck, eoff)
					if ok {
						parent, idx = p, chainChild(p)
					}
					node = target
					rem = local
					continue
				}
				if local == 0 {
					// The target IS this entry; its chain predecessor is
					// the parent (the first entry can never match with
					// rem > 0, so it exists).
					p, ok := memo.pred(eck, eoff)
					if !ok {
						return Position{}, fmt.Errorf("isolate: internal spine error (rem=%d)", rem)
					}
					parent, idx, node = p, chainChild(p), target
					rem = 0
					continue
				}
				// Target inside the entry's first-child subtree: the
				// entry's weight covers the mutation to come.
				memo.noteCrossing(target)
				parent, idx, node = target, 0, target.Children[0]
				rem = local - 1
				continue
			}
			memo.stats.Steps++
		}
		switch node.Label.Kind {
		case xmltree.Terminal:
			rem--
			descended := false
			var szC0 int64
			elem := len(node.Children) == 2
			for i, c := range node.Children {
				// Loop invariant: rem < val size of the remaining children.
				// For the last child that makes the containment check — and
				// with it the O(subtree) size walk — redundant. Descending
				// a next-sibling spine (the append-heavy case) always takes
				// the last child, turning the former quadratic re-walk of
				// nested sibling chains into a linear descent (and feeding
				// the run the spine index is built from).
				if i == len(node.Children)-1 {
					if indexed {
						if elem && i == 1 {
							// Sibling step: this node extends the current
							// run with its exact weight (itself plus its
							// first child, whose size iteration 0 computed).
							memo.pushRun(node, 1+szC0)
						} else {
							memo.flushRun(nil)
						}
					}
					parent, idx, node = node, i, c
					descended = true
					break
				}
				sz, exact := subtreeSizeWithin(c, sizes, memo, rem)
				if !exact || rem < sz {
					if indexed {
						if elem && i == 0 {
							if exact {
								// The run may end on this node: its weight
								// is exact even though we descend into its
								// first child — the mutation below is
								// committed to it as a crossing.
								memo.pushRun(node, 1+sz)
							}
							memo.flushRun(nil)
							memo.noteCrossing(node)
						} else {
							memo.flushRun(nil)
						}
					}
					parent, idx, node = node, i, c
					descended = true
					break
				}
				rem -= sz
				if i == 0 {
					szC0 = sz
				}
			}
			if !descended {
				return Position{}, fmt.Errorf("isolate: internal navigation error (rem=%d)", rem)
			}
		case xmltree.Nonterminal:
			sv := sizes.Get(node.Label.ID)
			// val(node) in preorder: Seg[0] body nodes, val(arg1), Seg[1],
			// val(arg2), ..., val(argk), Seg[k]. If the target falls in a
			// body segment we must unfold the rule; if it falls inside an
			// argument we descend without unfolding.
			off := int64(0)
			inBody := rem < sv.Seg[0]
			if !inBody {
				off = sv.Seg[0]
				descended := false
				for i, c := range node.Children {
					// Invariant: rem ≥ off (earlier segments and arguments
					// did not contain the target), so rem-off is a valid
					// abort limit and !exact implies rem < off+sz.
					sz, exact := subtreeSizeWithin(c, sizes, memo, rem-off)
					if !exact || rem < off+sz {
						if indexed {
							if i == len(node.Children)-1 && sv.Seg[i+1] == 0 &&
								off > 0 && !grammar.Saturated(off) {
								// A tail call: the derivation puts nothing
								// after this argument, so the chain runs
								// through it and everything derived before
								// it — body segments plus earlier
								// arguments — is the call's exact weight.
								memo.pushRun(node, off)
							} else {
								memo.flushRun(nil)
							}
						}
						rem -= off
						parent, idx, node = node, i, c
						descended = true
						break
					}
					off += sz
					if rem < off+sv.Seg[i+1] {
						inBody = true
						break
					}
					off += sv.Seg[i+1]
				}
				if descended {
					continue
				}
				if !inBody {
					return Position{}, fmt.Errorf("isolate: internal navigation error in call (rem=%d)", rem)
				}
			}
			// Unfold: inlining does not change val(node) or its preorder,
			// so rem stays put and navigation continues at the body. The
			// body takes the call's place on the chain, so a pending run
			// (and a pending spine extension) continues through it.
			was := node
			memo.noteUnfold(was.Label.ID)
			node = g.InlineAt(s, parent, idx)
			if parent == nil {
				// Root inline replaced the RHS.
				node = s.RHS
			}
			if memo != nil && memo.extendAt == was {
				memo.extendAt = node
			}
		default:
			return Position{}, fmt.Errorf("isolate: parameter on derivation path")
		}
	}
}

// NonBottomCount returns the number of non-⊥ nodes of val_G(S), i.e. the
// number of element nodes of the encoded document. When the node count
// saturates (exponentially compressing grammars), it returns
// grammar.ErrSaturated instead of a bogus huge count.
func NonBottomCount(g *grammar.Grammar) (int64, error) {
	total, err := g.ValNodeCount()
	if err != nil {
		return 0, err
	}
	if grammar.Saturated(total) {
		return 0, grammar.ErrSaturated
	}
	// In a binary XML encoding with n elements there are n+1 ⊥ leaves:
	// total = 2n+1.
	return (total - 1) / 2, nil
}
