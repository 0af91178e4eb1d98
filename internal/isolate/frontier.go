// The persistent isolation frontier: an incrementally maintained
// order-statistic index over the explicit sibling spines that repeated
// isolations leave unfolded in the start rule's right-hand side.
//
// In the binary first-child/next-sibling encoding, a flat document (the
// EXI-Weblog shape) turns into one long chain of next-sibling links.
// After a handful of updates most of that chain is explicit in RHS_S,
// and every further isolation walks it node by node: O(spine) pointer
// chases per op, each of which also evicts the walked nodes' memo
// entries. The frontier turns that walk into a weighted order-statistic
// seek: a spine is stored as a sequence of chunks, each entry carrying
// the exact number of derived-tree nodes its spine node contributes
// before the chain continues (the node itself plus its first-child
// subtree), so descent skips whole chunks by their weight sums and
// touches O(#chunks + chunkCap) entries instead of O(spine).
//
// Index discipline (what keeps the weights exact):
//
//   - Entries are created only from exact sizes: either a completed
//     subtreeSizeWithin walk during a naive descent, or the known node
//     count of a freshly inserted fragment.
//   - Every descent records the entries whose first-child subtree it
//     exits into (the "crossings" — exactly the indexed ancestors of the
//     mutation the caller is about to make). After the mutation, the
//     update layer commits the op's node delta to those weights.
//   - Structural edits at the isolated position itself add or remove
//     one entry in place; a delete additionally purges every spine
//     contained in the detached subtree.
//   - Anything the discipline cannot maintain exactly (saturated
//     counts, an inconsistent chain) drops the affected spine — the
//     index is a cache over the chain, never the truth, so dropping is
//     always safe and later descents simply re-register.
//
// Storage is keyed off Node.Aux through the same self-validating slot
// table the subtree-size memo uses, so membership probes on the descent
// hot path are one bounds-checked slice load, and the two owners can
// never fight over a node: a slot is either a memoized size or a spine
// position, and spine membership wins.
package isolate

import (
	"repro/internal/grammar"
	"repro/internal/xmltree"
)

const (
	// chunkCap is the maximum number of entries per spine chunk; inserts
	// into a full chunk split it.
	chunkCap = 64
	// chunkFill is the chunk occupancy at registration time — slack for
	// in-place inserts before the first split.
	chunkFill = 48
	// minRun is the shortest naively walked sibling run worth indexing;
	// below it the bookkeeping costs more than the walk it saves (the
	// 6-field record bodies of weblog-shaped documents stay unindexed).
	minRun = 16
)

// spine is one indexed maximal chain of last-child links: consecutive
// entries are directly linked (entry j's last child is entry j+1), and
// each entry's weight is the exact number of derived-tree nodes it
// contributes before the chain continues. Two node shapes qualify:
//
//   - an explicit element terminal, whose chain link is the
//     next-sibling child and whose weight is 1 + val(first child);
//   - a rule call whose derivation puts nothing after its last
//     argument (size(A, rank) = 0), whose chain link is that argument
//     and whose weight is everything derived before it — body segments
//     plus earlier arguments.
//
// The second shape is what makes the index bite on exponentially
// compressing corpora: their degraded start RHS is not a flat explicit
// chain but a nest of tail calls, each carrying the rest of the
// document in its last argument, and the naive descent re-measures
// that nest at every level of every op.
type spine struct {
	chunks []*chunk
	slot   int // position in Memo.spines, for swap-removal
}

// chunk is a contiguous run of spine entries with a weight sum, the
// unit of the seek skip.
type chunk struct {
	sp    *spine
	idx   int // position in sp.chunks
	nodes []*xmltree.Node
	w     []int64 // exact weight of entry i (see spine)
	sum   int64   // Σ w, exact (a sum that would saturate drops the spine)
}

// chainChild returns the child index the chain continues through — the
// last child, for both entry shapes.
func chainChild(n *xmltree.Node) int { return len(n.Children) - 1 }

// FrontierStats reports the spine index's activity. Steps, Jumps,
// Skipped and Registered are cumulative; Entries/Spines are gauges of
// the live index.
type FrontierStats struct {
	Steps      int64 // explicit RHS nodes stepped through naively
	Jumps      int64 // indexed seeks taken instead of walking
	Skipped    int64 // spine entries those seeks skipped over
	Registered int64 // entries ever added to the index

	Entries int // live indexed entries
	Spines  int // live spines
}

// AddCounters accumulates the cumulative counters of o (gauges are
// taken from o as the more recent snapshot). Used when a retiring memo
// adds its history to a longer-lived total.
func (s FrontierStats) AddCounters(o FrontierStats) FrontierStats {
	s.Steps += o.Steps
	s.Jumps += o.Jumps
	s.Skipped += o.Skipped
	s.Registered += o.Registered
	s.Entries = o.Entries
	s.Spines = o.Spines
	return s
}

// Frontier returns a snapshot of the index counters.
func (m *Memo) Frontier() FrontierStats {
	if m == nil {
		return FrontierStats{}
	}
	return m.stats
}

// DisableIndex turns the spine index off for this memo: descents walk
// naively (subtree-size memoization stays on). Differential tests pin
// byte-identical output of the indexed and the naive descent with it.
func (m *Memo) DisableIndex() { m.noIndex = true }

// beginDescent resets the per-descent scratch. A slot table past its limit is rebuilt here, between descents,
// when nothing holds chunk references — registration itself must never
// reset (a reset mid-splice would leave freshly stamped slots pointing
// into chunks the reset just detached).
func (m *Memo) beginDescent() {
	if m == nil {
		return
	}
	if len(m.entries) >= memoLimit {
		m.resetSlots()
	}
	m.runN = m.runN[:0]
	m.runW = m.runW[:0]
	m.crossings = m.crossings[:0]
	m.extend = nil
	m.extendAt = nil
}

// spineAt returns the spine position of n, if n is an indexed entry.
func (m *Memo) spineAt(n *xmltree.Node) (*chunk, int, bool) {
	if m == nil {
		return nil, 0, false
	}
	if a := n.Aux; uint64(a) < uint64(len(m.entries)) {
		if e := &m.entries[a]; e.self == n && e.ck != nil {
			return e.ck, int(e.off), true
		}
	}
	return nil, 0, false
}

// noteCrossing records that the current descent exits into the
// first-child subtree of n: if n is (or just became) an indexed entry,
// the op's node delta must be committed to its weight.
func (m *Memo) noteCrossing(n *xmltree.Node) {
	if m == nil || m.noIndex {
		return
	}
	m.crossings = append(m.crossings, n)
}

// pushRun appends a naively walked spine node (weight = itself plus its
// exact first-child subtree size) to the current run.
func (m *Memo) pushRun(n *xmltree.Node, w int64) {
	if m == nil || m.noIndex {
		return
	}
	m.runN = append(m.runN, n)
	m.runW = append(m.runW, w)
}

// flushRun ends the current naive sibling run and registers it when
// worthwhile. arrivedAt is the indexed entry the walk ran into (nil when
// the run ended for another reason): a run flowing into the head of an
// existing spine is prepended to it, and a run that directly continues a
// spine the same descent just exhausted is appended to that spine even
// below minRun — that is how an append-heavy stream grows one spine
// instead of fragmenting into many.
func (m *Memo) flushRun(arrivedAt *xmltree.Node) {
	if m == nil || m.noIndex {
		return
	}
	run, w := m.runN, m.runW
	ext, extAt := m.extend, m.extendAt
	m.runN, m.runW = run[:0], w[:0]
	m.extend, m.extendAt = nil, nil
	if len(run) == 0 {
		// A seek exhausted ext and the walk ended with no naive material
		// in between — if it ended at another spine's head, the two
		// spines are directly linked (an earlier descent appended the gap,
		// or there never was one): merge them back into one.
		if ext != nil && arrivedAt != nil && arrivedAt == extAt {
			m.maybeMerge(ext, arrivedAt)
		}
		return
	}
	if ext != nil && extAt == run[0] && len(ext.chunks) > 0 {
		m.spliceChunks(ext, len(ext.chunks), run, w)
		// The appended run may have closed a removeSplit gap: if the walk
		// stopped because it arrived at another spine's head, the two
		// spines are now directly linked — merge them back into one.
		m.maybeMerge(ext, arrivedAt)
		return
	}
	if arrivedAt != nil {
		if ck, off, ok := m.spineAt(arrivedAt); ok && off == 0 && ck.idx == 0 {
			// The run flows into the head of ck's spine: prepend.
			m.spliceChunks(ck.sp, 0, run, w)
			return
		}
	}
	if len(run) >= minRun {
		m.registerSpine(run, w)
	}
}

// registerSpine creates a new spine from a run of (node, weight) pairs.
func (m *Memo) registerSpine(nodes []*xmltree.Node, w []int64) {
	sp := &spine{slot: len(m.spines)}
	m.spines = append(m.spines, sp)
	m.stats.Spines++
	m.spliceChunks(sp, 0, nodes, w)
}

// spliceChunks inserts a run as whole new chunks at chunk position at
// of sp, stamping every entry. Runs that would overflow the slot table
// reset the memo first (the limit path), like put does.
func (m *Memo) spliceChunks(sp *spine, at int, nodes []*xmltree.Node, w []int64) {
	var add []*chunk
	for len(nodes) > 0 {
		n := len(nodes)
		if n > chunkFill {
			n = chunkFill
		}
		ck := &chunk{
			sp:    sp,
			nodes: append(make([]*xmltree.Node, 0, chunkCap), nodes[:n]...),
			w:     append(make([]int64, 0, chunkCap), w[:n]...),
		}
		for _, wi := range ck.w {
			ck.sum = grammar.SatAdd(ck.sum, wi)
		}
		if grammar.Saturated(ck.sum) {
			// Material too large to sum exactly — refuse to index the
			// rest of the run.
			break
		}
		add = append(add, ck)
		nodes, w = nodes[n:], w[n:]
	}
	if len(nodes) > 0 && at < len(sp.chunks) {
		// A partial splice in front of existing chunks would leave an
		// unindexed gap on the chain between the new material and the
		// old entries — breaking the directly-linked invariant seek and
		// pred depend on. Partial is only safe when appending (the spine
		// simply ends earlier); here, stop trusting the spine entirely.
		// The built chunks were never attached or stamped, so they are
		// simply abandoned.
		m.dropSpine(sp)
		return
	}
	if len(add) == 0 {
		if len(sp.chunks) == 0 {
			m.dropSpine(sp)
		}
		return
	}
	sp.chunks = append(sp.chunks[:at], append(add, sp.chunks[at:]...)...)
	for i := at; i < len(sp.chunks); i++ {
		sp.chunks[i].idx = i
	}
	for _, ck := range add {
		for i, n := range ck.nodes {
			m.stampSpine(n, ck, i)
		}
		m.stats.Entries += len(ck.nodes)
		m.stats.Registered += int64(len(ck.nodes))
	}
}

// maybeMerge merges the spine headed by at onto the end of sp when the
// two are directly chain-linked — the re-join of a removeSplit gap once
// the material between the halves is indexed again. No-op unless at
// heads a different live spine and sp's last entry's chain child is at.
func (m *Memo) maybeMerge(sp *spine, at *xmltree.Node) {
	if at == nil || sp == nil || len(sp.chunks) == 0 {
		return
	}
	ck, off, ok := m.spineAt(at)
	if !ok || off != 0 || ck.idx != 0 || ck.sp == nil || ck.sp == sp {
		return
	}
	lc := sp.chunks[len(sp.chunks)-1]
	last := lc.nodes[len(lc.nodes)-1]
	if len(last.Children) == 0 || last.Children[chainChild(last)] != at {
		return
	}
	m.mergeSpines(sp, ck.sp)
}

// mergeSpines concatenates sp2's chunks onto sp1 and retires sp2.
// Chunk identity is preserved, so the Aux slot table needs no
// restamping — only the chunks' back-references and the registry
// change. Entries gauge is untouched (no entry is created or freed).
func (m *Memo) mergeSpines(sp1, sp2 *spine) {
	base := len(sp1.chunks)
	sp1.chunks = append(sp1.chunks, sp2.chunks...)
	for i := base; i < len(sp1.chunks); i++ {
		sp1.chunks[i].sp = sp1
		sp1.chunks[i].idx = i
	}
	sp2.chunks = nil
	// Swap-remove sp2 from the registry without touching its former
	// chunks' slots (they now belong to sp1).
	last := len(m.spines) - 1
	if last >= 0 && sp2.slot <= last && m.spines[sp2.slot] == sp2 {
		m.spines[sp2.slot] = m.spines[last]
		m.spines[sp2.slot].slot = sp2.slot
		m.spines = m.spines[:last]
		m.stats.Spines--
	}
}

// stampSpine claims n's slot for spine membership (replacing any plain
// memoized size). It may grow the table past memoLimit: the overshoot
// is bounded by the live spine entries (attached RHS nodes), and the
// next beginDescent rebuilds the table — resetting here, mid-splice,
// would detach the very chunks the caller is stamping into.
func (m *Memo) stampSpine(n *xmltree.Node, ck *chunk, off int) {
	if a := n.Aux; uint64(a) < uint64(len(m.entries)) {
		if e := &m.entries[a]; e.self == n || e.self == nil {
			e.self = n
			e.ck = ck
			e.off = int32(off)
			return
		}
	}
	n.Aux = int32(len(m.entries))
	m.entries = append(m.entries, memoEntry{self: n, ck: ck, off: int32(off)})
}

// restamp refreshes the slot offsets of ck's entries from position from.
func (m *Memo) restamp(ck *chunk, from int) {
	for i := from; i < len(ck.nodes); i++ {
		m.stampSpine(ck.nodes[i], ck, i)
	}
}

// resetSlots drops the whole slot table AND every spine (spine slots
// cannot survive a table rebuild). Cumulative counters persist.
func (m *Memo) resetSlots() {
	clear(m.entries)
	m.entries = m.entries[:0]
	for _, sp := range m.spines {
		sp.chunks = nil // stale references (a pending extend) must see an empty spine
	}
	m.spines = m.spines[:0]
	m.stats.Entries = 0
	m.stats.Spines = 0
	m.extend, m.extendAt = nil, nil
}

// ResetFrontier drops every spine but keeps plain memoized sizes.
// Called when an op's node delta cannot be maintained exactly
// (saturated counts).
func (m *Memo) ResetFrontier() {
	if m == nil {
		return
	}
	for len(m.spines) > 0 {
		m.dropSpine(m.spines[len(m.spines)-1])
	}
}

// dropSpine forgets a spine entirely, freeing its entries' slots.
func (m *Memo) dropSpine(sp *spine) {
	for _, ck := range sp.chunks {
		m.clearChunkSlots(ck)
	}
	sp.chunks = nil
	// Swap-remove from the registry.
	last := len(m.spines) - 1
	if last >= 0 && sp.slot <= last && m.spines[sp.slot] == sp {
		m.spines[sp.slot] = m.spines[last]
		m.spines[sp.slot].slot = sp.slot
		m.spines = m.spines[:last]
		m.stats.Spines--
	}
}

// clearChunkSlots frees the slots of every entry in ck.
func (m *Memo) clearChunkSlots(ck *chunk) {
	for _, n := range ck.nodes {
		if a := n.Aux; uint64(a) < uint64(len(m.entries)) {
			if e := &m.entries[a]; e.self == n && e.ck == ck {
				e.self = nil
				e.ck = nil
			}
		}
	}
	m.stats.Entries -= len(ck.nodes)
	ck.sp = nil
}

// seek consumes rem derived-tree nodes along the spine starting at
// entry (ck, off). Outcomes:
//
//   - found && local == 0: the target IS entry (eck, eoff); its chain
//     predecessor is the parent (guaranteed to exist — the first entry
//     can never match with rem > 0).
//   - found && local > 0: the target lies inside the first-child
//     subtree of entry (eck, eoff), at offset local-1 within it.
//   - !found: the spine is exhausted; (eck, eoff) is its last entry and
//     local is the remainder to consume at that entry's next-sibling.
func (m *Memo) seek(ck *chunk, off int, rem int64) (eck *chunk, eoff int, local int64, found bool) {
	var cum int64
	// Partial scan of the first chunk.
	for i := off; i < len(ck.nodes); i++ {
		if cum+ck.w[i] > rem {
			m.stats.Skipped += int64(i - off)
			return ck, i, rem - cum, true
		}
		cum += ck.w[i]
	}
	skipped := int64(len(ck.nodes) - off)
	sp := ck.sp
	for k := ck.idx + 1; k < len(sp.chunks); k++ {
		c := sp.chunks[k]
		if cum+c.sum > rem {
			for i := 0; i < len(c.nodes); i++ {
				if cum+c.w[i] > rem {
					m.stats.Skipped += skipped + int64(i)
					return c, i, rem - cum, true
				}
				cum += c.w[i]
			}
		}
		cum += c.sum
		skipped += int64(len(c.nodes))
	}
	m.stats.Skipped += skipped
	lastCk := sp.chunks[len(sp.chunks)-1]
	return lastCk, len(lastCk.nodes) - 1, rem - cum, false
}

// pred returns the chain predecessor of entry (ck, off).
func (m *Memo) pred(ck *chunk, off int) (*xmltree.Node, bool) {
	if off > 0 {
		return ck.nodes[off-1], true
	}
	if ck.idx > 0 {
		p := ck.sp.chunks[ck.idx-1]
		return p.nodes[len(p.nodes)-1], true
	}
	return nil, false
}

// suffixSum returns the total weight of the spine from entry (ck, off)
// on, plus the node the chain continues at after the last entry. Used
// by the memoized size walk to sum an indexed region in O(#chunks).
func (m *Memo) suffixSum(ck *chunk, off int) (int64, *xmltree.Node) {
	var sum int64
	for i := off; i < len(ck.nodes); i++ {
		sum = grammar.SatAdd(sum, ck.w[i])
	}
	sp := ck.sp
	for k := ck.idx + 1; k < len(sp.chunks); k++ {
		sum = grammar.SatAdd(sum, sp.chunks[k].sum)
	}
	lastCk := sp.chunks[len(sp.chunks)-1]
	last := lastCk.nodes[len(lastCk.nodes)-1]
	return sum, last.Children[chainChild(last)]
}

// removeSplit removes entry (ck, off) and splits its spine there: the
// entries before it keep the spine, the entries after become their own
// spine. Used when the descent lands inside a call entry's head — the
// call is about to be unfolded or entered, and whatever replaces it on
// the chain is unindexed material between the two halves.
func (m *Memo) removeSplit(ck *chunk, off int) {
	n := ck.nodes[off]
	if a := n.Aux; uint64(a) < uint64(len(m.entries)) {
		if e := &m.entries[a]; e.self == n && e.ck == ck {
			e.self = nil
			e.ck = nil
		}
	}
	m.stats.Entries--
	sp := ck.sp
	at := ck.idx
	var right *chunk
	if rest := len(ck.nodes) - off - 1; rest > 0 {
		right = &chunk{
			nodes: append(make([]*xmltree.Node, 0, chunkCap), ck.nodes[off+1:]...),
			w:     append(make([]int64, 0, chunkCap), ck.w[off+1:]...),
		}
		for _, wi := range right.w {
			right.sum += wi
		}
	}
	ck.sum -= ck.w[off]
	if right != nil {
		ck.sum -= right.sum
	}
	ck.nodes = ck.nodes[:off]
	ck.w = ck.w[:off]
	tail := append([]*chunk(nil), sp.chunks[at+1:]...)
	if len(ck.nodes) > 0 {
		sp.chunks = sp.chunks[:at+1]
	} else {
		sp.chunks = sp.chunks[:at]
		ck.sp = nil
	}
	if len(sp.chunks) == 0 {
		m.dropSpine(sp)
	}
	var s2chunks []*chunk
	if right != nil {
		s2chunks = append(s2chunks, right)
	}
	s2chunks = append(s2chunks, tail...)
	m.splitOff(s2chunks)
	if right != nil && right.sp != nil {
		m.restamp(right, 0)
	}
}

// splitOff registers the given chunks as their own fresh spine (the
// second half of a spine split).
func (m *Memo) splitOff(chunks []*chunk) {
	if len(chunks) == 0 {
		return
	}
	s2 := &spine{slot: len(m.spines), chunks: chunks}
	m.spines = append(m.spines, s2)
	m.stats.Spines++
	for i, c := range chunks {
		c.sp = s2
		c.idx = i
	}
}

// isLast reports whether (ck, off) is the last entry of its spine.
func (m *Memo) isLast(ck *chunk, off int) bool {
	return off == len(ck.nodes)-1 && ck.idx == len(ck.sp.chunks)-1
}

// insertAt inserts a new entry (node n, weight w) at position pos of ck
// (pos may equal len(ck.nodes) to append). O(chunkCap) for the shift
// and restamp, amortized O(1) chunk splits.
func (m *Memo) insertAt(ck *chunk, pos int, n *xmltree.Node, w int64) {
	if s := grammar.SatAdd(ck.sum, w); grammar.Saturated(s) {
		m.dropSpine(ck.sp)
		return
	}
	if len(ck.nodes) >= chunkCap {
		ck, pos = m.split(ck, pos)
	}
	ck.nodes = append(ck.nodes, nil)
	copy(ck.nodes[pos+1:], ck.nodes[pos:])
	ck.nodes[pos] = n
	ck.w = append(ck.w, 0)
	copy(ck.w[pos+1:], ck.w[pos:])
	ck.w[pos] = w
	ck.sum += w
	m.restamp(ck, pos)
	m.stats.Entries++
	m.stats.Registered++
}

// split halves a full chunk and returns the chunk/position the pending
// insert should go to.
func (m *Memo) split(ck *chunk, pos int) (*chunk, int) {
	half := len(ck.nodes) / 2
	nc := &chunk{
		sp:    ck.sp,
		nodes: append(make([]*xmltree.Node, 0, chunkCap), ck.nodes[half:]...),
		w:     append(make([]int64, 0, chunkCap), ck.w[half:]...),
	}
	for _, wi := range nc.w {
		nc.sum += wi
	}
	ck.sum -= nc.sum
	ck.nodes = ck.nodes[:half]
	ck.w = ck.w[:half]
	sp := ck.sp
	sp.chunks = append(sp.chunks[:ck.idx+1], append([]*chunk{nc}, sp.chunks[ck.idx+1:]...)...)
	for i := ck.idx + 1; i < len(sp.chunks); i++ {
		sp.chunks[i].idx = i
	}
	m.restamp(nc, 0)
	if pos > half {
		return nc, pos - half
	}
	return ck, pos
}

// removeAt deletes the entry at (ck, off), freeing its slot; empty
// chunks leave the spine, empty spines are dropped.
func (m *Memo) removeAt(ck *chunk, off int) {
	n := ck.nodes[off]
	if a := n.Aux; uint64(a) < uint64(len(m.entries)) {
		if e := &m.entries[a]; e.self == n && e.ck == ck {
			e.self = nil
			e.ck = nil
		}
	}
	ck.sum -= ck.w[off]
	copy(ck.nodes[off:], ck.nodes[off+1:])
	ck.nodes = ck.nodes[:len(ck.nodes)-1]
	copy(ck.w[off:], ck.w[off+1:])
	ck.w = ck.w[:len(ck.w)-1]
	m.stats.Entries--
	if len(ck.nodes) == 0 {
		sp := ck.sp
		sp.chunks = append(sp.chunks[:ck.idx], sp.chunks[ck.idx+1:]...)
		for i := ck.idx; i < len(sp.chunks); i++ {
			sp.chunks[i].idx = i
		}
		ck.sp = nil
		if len(sp.chunks) == 0 {
			m.dropSpine(sp)
		}
		return
	}
	m.restamp(ck, off)
}

// adjustWeight commits a node-count delta to the entry holding n, if n
// is indexed. Weights that can no longer be represented exactly drop
// the spine.
func (m *Memo) adjustWeight(n *xmltree.Node, delta int64) {
	ck, off, ok := m.spineAt(n)
	if !ok {
		return
	}
	nw := ck.w[off] + delta
	ns := ck.sum + delta
	if nw < 1 || grammar.Saturated(nw) || grammar.Saturated(ns) || ns < 0 {
		m.dropSpine(ck.sp)
		return
	}
	ck.w[off] = nw
	ck.sum = ns
}

// applyCrossings commits the op's node delta to every indexed ancestor
// recorded by the descent, then clears the record.
func (m *Memo) applyCrossings(delta int64) {
	for _, n := range m.crossings {
		m.adjustWeight(n, delta)
	}
	m.crossings = m.crossings[:0]
}

// purgeDetached drops every spine with an entry inside the detached
// subtree (the first-child subtree a delete removes). The walk costs
// O(|subtree|) — the same order the delete already paid to size it.
func (m *Memo) purgeDetached(root *xmltree.Node) {
	root.Walk(func(n *xmltree.Node) bool {
		if ck, _, ok := m.spineAt(n); ok {
			m.dropSpine(ck.sp)
		}
		return true
	})
}

// CommitInsert maintains the index after an insert at the isolated
// position p: crossings gain the fragment's delta nodes, and the fresh
// chain head sub becomes one new entry — before p.Node when that was
// itself an entry, or appended when the insert extended an indexed
// spine at its end (the append-heavy stream case).
func (m *Memo) CommitInsert(p Position, sub *xmltree.Node, delta int64) {
	if m == nil || m.noIndex {
		return
	}
	m.applyCrossings(delta)
	if delta <= 0 || grammar.Saturated(delta) {
		return
	}
	if sub.Label.Kind != xmltree.Terminal || len(sub.Children) != 2 {
		return
	}
	if ck, off, ok := m.spineAt(p.Node); ok {
		m.insertAt(ck, off, sub, delta)
		return
	}
	if p.Parent == nil || p.Index != chainChild(p.Parent) {
		return
	}
	if ck, off, ok := m.spineAt(p.Parent); ok {
		if m.isLast(ck, off) {
			m.insertAt(ck, off+1, sub, delta)
		} else {
			// The entry after p.Parent should have been p.Node — the
			// chain and the index disagree, so stop trusting the spine.
			m.dropSpine(ck.sp)
		}
	}
}

// CommitDelete maintains the index after a delete at the isolated
// position p: crossings lose the removed node count, p.Node's own entry
// (if any) leaves the spine, and spines inside the detached first-child
// subtree are purged.
func (m *Memo) CommitDelete(p Position, removed int64) {
	if m == nil || m.noIndex {
		return
	}
	if grammar.Saturated(removed) {
		// The exact count is unknown — every crossed weight is
		// unrecoverable.
		m.crossings = m.crossings[:0]
		m.ResetFrontier()
		return
	}
	m.applyCrossings(-removed)
	if ck, off, ok := m.spineAt(p.Node); ok {
		m.removeAt(ck, off)
	}
	if len(p.Node.Children) > 0 {
		m.purgeDetached(p.Node.Children[0])
	}
}

// seedMaxDescents bounds SeedChain's search depth: each step descends
// one tree level toward the heaviest subtree, so the bound only bites
// on pathologically deep explicit RHS shapes.
const seedMaxDescents = 64

// seedWeight computes the exact spine weight of n, or ok=false when n
// is neither indexable entry shape (an explicit element terminal or a
// tail call — see the spine doc above). Saturated weights return
// ok=false too: the index only stores exact counts. Off-chain material
// is measured by SubtreeValSize over disjoint subtrees plus callee size
// vectors, never by expanding a rule.
func seedWeight(n *xmltree.Node, sizes *grammar.SizeTable) (int64, bool) {
	switch n.Label.Kind {
	case xmltree.Terminal:
		if len(n.Children) != 2 {
			return 0, false // ⊥ leaf
		}
		w := grammar.SatAdd(1, grammar.SubtreeValSize(n.Children[0], sizes))
		return w, !grammar.Saturated(w)
	case xmltree.Nonterminal:
		sv := sizes.Get(n.Label.ID)
		k := len(n.Children)
		if sv == nil || k == 0 || len(sv.Seg) != k+1 || sv.Seg[k] != 0 {
			return 0, false // not a tail call: material derives after the last argument
		}
		// Everything derived before the last argument: all body segments
		// (Seg[k] is zero) plus the earlier arguments.
		w := sv.Total
		for i := 0; i < k-1; i++ {
			w = grammar.SatAdd(w, grammar.SubtreeValSize(n.Children[i], sizes))
		}
		return w, w > 0 && !grammar.Saturated(w)
	}
	return 0, false
}

// seedChain searches g's start RHS for the longest maximal chain of
// last-child links reachable without unfolding any rule, and returns it
// as a (node, exact-weight) run — nil when no chain of at least minRun
// qualifying entries exists within seedMaxDescents levels. After a
// recompression the memo is retired with the grammar it served, so
// without seeding every point query on the fresh grammar descends
// naively until write descents happen to re-register runs — the index
// goes dark exactly when the grammar just got cheapest to index.
// Starting at the RHS root the search collects the chain of qualifying
// entries (the same two shapes, with the same exact weights, the write
// descent registers), and when that chain is shorter than the
// registration threshold it descends into the heaviest off-chain
// subtree seen — the material, and with it the long chain, must be down
// there — and retries. The search only reads g and sizes, so it is safe
// on a frozen shared grammar; SeedView packages the run for the
// read side.
func seedChain(g *grammar.Grammar, sizes *grammar.SizeTable) (nodes []*xmltree.Node, w []int64) {
	if sizes == nil {
		return nil, nil
	}
	start := g.StartRule()
	if start == nil {
		return nil, nil
	}
	n := start.RHS
	for depth := 0; n != nil && depth < seedMaxDescents; depth++ {
		nodes, w = nodes[:0], w[:0]
		for c := n; c != nil; {
			wt, ok := seedWeight(c, sizes)
			if !ok {
				break
			}
			nodes = append(nodes, c)
			w = append(w, wt)
			c = c.Children[chainChild(c)]
		}
		if len(nodes) >= minRun {
			return nodes, w
		}
		// Chain too short to be worth indexing — descend into the
		// heaviest element's first-child subtree (tail calls keep their
		// pre-argument material inside the rule body, unreachable without
		// unfolding, so only element entries are descendable).
		var best *xmltree.Node
		var bestW int64 = -1
		for i, e := range nodes {
			if e.Label.Kind == xmltree.Terminal && w[i] > bestW {
				best, bestW = e, w[i]
			}
		}
		// The chain-ending node may dwarf every entry (typically a
		// saturated-weight element carrying the whole document).
		if c := chainEnd(nodes, n); c != nil && c.Label.Kind == xmltree.Terminal && len(c.Children) == 2 {
			if cw := grammar.SatAdd(1, grammar.SubtreeValSize(c.Children[0], sizes)); cw > bestW {
				best = c
			}
		}
		if best == nil {
			return nil, nil
		}
		n = best.Children[0]
	}
	return nil, nil
}

// chainEnd returns the node the collected chain stopped at: the chain
// child of the last entry, or the chain head itself when no entry
// qualified.
func chainEnd(nodes []*xmltree.Node, head *xmltree.Node) *xmltree.Node {
	if len(nodes) == 0 {
		return head
	}
	last := nodes[len(nodes)-1]
	if len(last.Children) == 0 {
		return nil
	}
	return last.Children[chainChild(last)]
}
