// The read-only spine view: an immutable snapshot of the spine index a
// writer publishes alongside a frozen grammar generation, so read-side
// point queries on a degraded grammar get the same chunk-by-sum seek
// the update descent gets — without ever touching the writer's live
// index.
//
// # Why sharing the live chunk slices is safe
//
// View does NOT copy chunk contents: each view spine aliases the live
// chunks' node and weight slices. That is race-free only under the
// store's generation protocol (internal/store/generation.go): chunks
// are mutated exclusively by the write path (descents and commit
// hooks), and every write-path mutation starts by privatizing the
// grammar. If any reader pinned the published generation, the writer
// moves to a fresh clone AND retires the memo (update.Cache.MoveTo):
// descents edit through the memo's node pointers, which point into the
// pinned grammar, so the memo cannot follow the clone, and the chunks a
// published view aliases are never touched again. If no reader pinned
// it, the writer reclaims the generation and the view becomes
// unreachable before the first mutation. A view must therefore only
// ever be handed out together with the frozen grammar generation
// it was built against.
//
// # Why membership is head-only
//
// Spine entries are chained through last-child links, so every entry is
// a tree ancestor of all later entries: any descent that reaches a
// spine's material passes its head first. Probing heads only keeps the
// snapshot O(#spines) map entries instead of O(#entries), and — unlike
// the writer's Aux slot table — a map on private snapshot state cannot
// race the writer's slot reuse.
package isolate

import (
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

// viewSpine is one immutable spine snapshot: per-chunk entry and weight
// slices (aliasing the live chunks) plus per-chunk weight sums.
type viewSpine struct {
	nodes [][]*xmltree.Node
	w     [][]int64
	sums  []int64
}

// SpineView is an immutable snapshot of a Memo's spine index, safe to
// share with any number of concurrent readers. The zero of usefulness
// is nil: every method treats a nil view as an empty index.
type SpineView struct {
	heads   map[*xmltree.Node]int32 // spine head → index into spines
	spines  []viewSpine
	entries int
}

// View snapshots the live spine index into a read-only SpineView in
// O(#chunks), aliasing (not copying) the chunks' node and weight
// slices — see the package comment for why that is safe. Returns nil
// when the index is empty or disabled; callers fall back to naive
// descent then.
func (m *Memo) View() *SpineView {
	if m == nil || m.noIndex || len(m.spines) == 0 {
		return nil
	}
	// One backing array per field across all spines (a view is built at
	// every generation publish, so its allocation count is on the batch
	// path); per-spine slices are capped reslices of these.
	total := 0
	for _, sp := range m.spines {
		total += len(sp.chunks)
	}
	var (
		nodesBuf = make([][]*xmltree.Node, 0, total)
		wBuf     = make([][]int64, 0, total)
		sumsBuf  = make([]int64, 0, total)
	)
	v := &SpineView{
		heads:  make(map[*xmltree.Node]int32, len(m.spines)),
		spines: make([]viewSpine, 0, len(m.spines)),
	}
	for _, sp := range m.spines {
		if len(sp.chunks) == 0 {
			continue
		}
		base := len(sumsBuf)
		ok := true
		n := 0
		for _, ck := range sp.chunks {
			if len(ck.nodes) == 0 || grammar.Saturated(ck.sum) {
				ok = false
				break
			}
			// Full-capacity reslices document intent only — the freeze
			// protocol, not slice limits, is what prevents writer appends
			// from showing through.
			nodesBuf = append(nodesBuf, ck.nodes[:len(ck.nodes):len(ck.nodes)])
			wBuf = append(wBuf, ck.w[:len(ck.w):len(ck.w)])
			sumsBuf = append(sumsBuf, ck.sum)
			n += len(ck.nodes)
		}
		if !ok {
			nodesBuf, wBuf, sumsBuf = nodesBuf[:base], wBuf[:base], sumsBuf[:base]
			continue
		}
		vs := viewSpine{
			nodes: nodesBuf[base:len(nodesBuf):len(nodesBuf)],
			w:     wBuf[base:len(wBuf):len(wBuf)],
			sums:  sumsBuf[base:len(sumsBuf):len(sumsBuf)],
		}
		v.heads[vs.nodes[0][0]] = int32(len(v.spines))
		v.spines = append(v.spines, vs)
		v.entries += n
	}
	if len(v.spines) == 0 {
		return nil
	}
	return v
}

// SeedView builds a single-spine view directly from the start rule's
// dominant chain (see seedChain), bypassing the memo entirely. It is
// the read side's answer to the post-recompression index gap: the memo
// is retired with the grammar a recompression replaced, so the next
// published generation has no chunks to snapshot and its first point
// queries would degrade to naive descent. The generation instead calls
// SeedView lazily, on the first read that wants indexed descent — the
// writer pays nothing at publish, write-only workloads never seed, and
// because the search and the view construction only READ the frozen
// grammar and size table (no Aux stamping, no memo mutation), the build
// is race-free even when several published generations share one frozen
// grammar. Returns nil when no chain worth indexing exists; callers
// fall back to naive descent then, exactly as with an empty memo.
func SeedView(g *grammar.Grammar, sizes *grammar.SizeTable) *SpineView {
	nodes, w := seedChain(g, sizes)
	if len(nodes) == 0 {
		return nil
	}
	nchunks := (len(nodes) + chunkFill - 1) / chunkFill
	v := &SpineView{
		heads: map[*xmltree.Node]int32{nodes[0]: 0},
	}
	vs := viewSpine{
		nodes: make([][]*xmltree.Node, 0, nchunks),
		w:     make([][]int64, 0, nchunks),
		sums:  make([]int64, 0, nchunks),
	}
	for len(nodes) > 0 {
		n := len(nodes)
		if n > chunkFill {
			n = chunkFill
		}
		var sum int64
		for _, wi := range w[:n] {
			sum = grammar.SatAdd(sum, wi)
		}
		if grammar.Saturated(sum) {
			// Material too large to sum exactly — index the prefix only,
			// like the write path's spliceChunks.
			break
		}
		vs.nodes = append(vs.nodes, nodes[:n:n])
		vs.w = append(vs.w, w[:n:n])
		vs.sums = append(vs.sums, sum)
		v.entries += n
		nodes, w = nodes[n:], w[n:]
	}
	if len(vs.nodes) == 0 {
		return nil
	}
	v.spines = []viewSpine{vs}
	return v
}

// Entries returns the number of indexed entries the view covers.
func (v *SpineView) Entries() int {
	if v == nil {
		return 0
	}
	return v.entries
}

// Spines returns the number of spines the view covers.
func (v *SpineView) Spines() int {
	if v == nil {
		return 0
	}
	return len(v.spines)
}

// At reports whether n heads an indexed spine, returning the spine's
// handle for Seek/Sum.
func (v *SpineView) At(n *xmltree.Node) (int32, bool) {
	if v == nil {
		return 0, false
	}
	s, ok := v.heads[n]
	return s, ok
}

// Seek consumes rem derived-tree nodes along spine s from its head,
// mirroring Memo.seek. Outcomes:
//
//   - found && local == 0: the target IS entry n.
//   - found && local > 0: the target lies at offset local within what n
//     derives before the chain continues — inside its first-child
//     subtree for an element entry, inside its body or an earlier
//     argument for a tail-call entry.
//   - !found: the spine is exhausted; n is the chain continuation after
//     the last entry and local the remainder to consume there.
//
// skipped counts the entries the seek stepped over (read-side stats).
func (v *SpineView) Seek(s int32, rem int64) (n *xmltree.Node, local int64, skipped int64, found bool) {
	vs := &v.spines[s]
	var cum int64
	for k := 0; k < len(vs.sums); k++ {
		if cum+vs.sums[k] > rem {
			nodes, w := vs.nodes[k], vs.w[k]
			for i := 0; i < len(nodes); i++ {
				if cum+w[i] > rem {
					return nodes[i], rem - cum, skipped + int64(i), true
				}
				cum += w[i]
			}
		}
		cum += vs.sums[k]
		skipped += int64(len(vs.nodes[k]))
	}
	lastNodes := vs.nodes[len(vs.nodes)-1]
	last := lastNodes[len(lastNodes)-1]
	return last.Children[chainChild(last)], rem - cum, skipped, false
}

// Sum returns the spine's total weight plus the node the chain
// continues at after its last entry — the read-side suffixSum, used to
// sum an indexed region in O(#chunks) during size measurement.
func (v *SpineView) Sum(s int32) (int64, *xmltree.Node) {
	vs := &v.spines[s]
	var sum int64
	for _, cs := range vs.sums {
		sum = grammar.SatAdd(sum, cs)
	}
	lastNodes := vs.nodes[len(vs.nodes)-1]
	last := lastNodes[len(lastNodes)-1]
	return sum, last.Children[chainChild(last)]
}
