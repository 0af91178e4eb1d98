package isolate

import (
	"math/rand"
	"testing"

	"repro/internal/grammar"
	"repro/internal/treerepair"
	"repro/internal/xmltree"
)

// modelSpine is the reference the chunked index is checked against: a
// plain slice of (node, weight) in chain order.
type modelSpine struct {
	nodes []*xmltree.Node
	w     []int64
}

// spineModel drives the chunked spine index and the slice model through
// the same operation sequence and cross-checks them after every step.
type spineModel struct {
	t      *testing.T
	m      *Memo
	spines []*modelSpine
}

func elemNode() *xmltree.Node {
	return xmltree.New(xmltree.Term(1), xmltree.NewBottom(), xmltree.NewBottom())
}

func (sm *spineModel) register(n int, rng *rand.Rand) {
	nodes := make([]*xmltree.Node, n)
	w := make([]int64, n)
	for i := range nodes {
		nodes[i] = elemNode()
		w[i] = 1 + int64(rng.Intn(50))
		if i > 0 {
			// Chain-link the entries like a real sibling spine, so the
			// continuity checks of spine merging see consistent material.
			nodes[i-1].Children[1] = nodes[i]
		}
	}
	sm.m.registerSpine(nodes, w)
	sm.spines = append(sm.spines, &modelSpine{nodes: nodes, w: w})
}

// locate returns the model spine and position of an entry, via the
// index's own slot table.
func (sm *spineModel) pick(rng *rand.Rand) (msi, pos int) {
	for try := 0; try < 32; try++ {
		msi = rng.Intn(len(sm.spines))
		if len(sm.spines[msi].nodes) > 0 {
			return msi, rng.Intn(len(sm.spines[msi].nodes))
		}
	}
	return -1, 0
}

func (sm *spineModel) insert(msi, pos int, rng *rand.Rand) {
	ms := sm.spines[msi]
	n := elemNode()
	w := 1 + int64(rng.Intn(50))
	ck, off, ok := sm.m.spineAt(ms.nodes[pos])
	if !ok {
		sm.t.Fatalf("insert: entry %d/%d lost its slot", msi, pos)
	}
	// Splice the new entry into the chain like a real insert does.
	n.Children[1] = ms.nodes[pos]
	if pos > 0 {
		ms.nodes[pos-1].Children[1] = n
	}
	sm.m.insertAt(ck, off, n, w)
	ms.nodes = append(ms.nodes[:pos], append([]*xmltree.Node{n}, ms.nodes[pos:]...)...)
	ms.w = append(ms.w[:pos], append([]int64{w}, ms.w[pos:]...)...)
}

func (sm *spineModel) remove(msi, pos int) {
	ms := sm.spines[msi]
	ck, off, ok := sm.m.spineAt(ms.nodes[pos])
	if !ok {
		sm.t.Fatalf("remove: entry %d/%d lost its slot", msi, pos)
	}
	// Splice the entry out of the chain like a real delete does.
	if pos > 0 {
		ms.nodes[pos-1].Children[1] = ms.nodes[pos].Children[1]
	}
	sm.m.removeAt(ck, off)
	ms.nodes = append(ms.nodes[:pos], ms.nodes[pos+1:]...)
	ms.w = append(ms.w[:pos], ms.w[pos+1:]...)
}

func (sm *spineModel) removeSplit(msi, pos int) {
	ms := sm.spines[msi]
	ck, off, ok := sm.m.spineAt(ms.nodes[pos])
	if !ok {
		sm.t.Fatalf("removeSplit: entry %d/%d lost its slot", msi, pos)
	}
	sm.m.removeSplit(ck, off)
	right := &modelSpine{
		nodes: append([]*xmltree.Node(nil), ms.nodes[pos+1:]...),
		w:     append([]int64(nil), ms.w[pos+1:]...),
	}
	ms.nodes = ms.nodes[:pos]
	ms.w = ms.w[:pos]
	sm.spines = append(sm.spines, right)
}

// splitMerge exercises the removeSplit→re-join cycle: split a spine at
// pos, close the chain gap (as a real descent does when it re-registers
// the unfolded material), and merge the halves back into one spine.
func (sm *spineModel) splitMerge(msi, pos int) {
	ms := sm.spines[msi]
	if pos == 0 || pos+1 >= len(ms.nodes) {
		sm.removeSplit(msi, pos)
		return
	}
	sm.removeSplit(msi, pos)
	left := sm.spines[msi]
	right := sm.spines[len(sm.spines)-1]
	// The detached entry's material is gone: the left run chains directly
	// into the right head again.
	leftLast := left.nodes[len(left.nodes)-1]
	leftLast.Children[1] = right.nodes[0]
	ck, _, ok := sm.m.spineAt(leftLast)
	if !ok {
		sm.t.Fatalf("splitMerge: left tail lost its slot")
	}
	sm.m.maybeMerge(ck.sp, right.nodes[0])
	left.nodes = append(left.nodes, right.nodes...)
	left.w = append(left.w, right.w...)
	sm.spines = sm.spines[:len(sm.spines)-1]
}

// checkView snapshots a frozen read-only view and checks it against the
// model: every non-empty spine must be covered, totals and continuation
// nodes must agree, and a random seek must route exactly like the
// model's prefix-sum answer (the index-vs-naive agreement property at
// the unit level).
func (sm *spineModel) checkView(rng *rand.Rand) {
	v := sm.m.View()
	live := 0
	for msi, ms := range sm.spines {
		if len(ms.nodes) == 0 {
			continue
		}
		live++
		s, ok := v.At(ms.nodes[0])
		if !ok {
			sm.t.Fatalf("view: spine %d head not mapped", msi)
		}
		var total int64
		for _, wi := range ms.w {
			total += wi
		}
		last := ms.nodes[len(ms.nodes)-1]
		sum, tail := v.Sum(s)
		if sum != total {
			sm.t.Fatalf("view: spine %d Sum %d, model %d", msi, sum, total)
		}
		if tail != last.Children[1] {
			sm.t.Fatalf("view: spine %d continuation mismatch", msi)
		}
		rem := rng.Int63n(total + 20)
		n, local, _, found := v.Seek(s, rem)
		var cum int64
		matched := false
		for i := 0; i < len(ms.nodes); i++ {
			if cum+ms.w[i] > rem {
				if !found || n != ms.nodes[i] || local != rem-cum {
					sm.t.Fatalf("view seek(%d): spine %d model entry %d local %d, view local %d found %v",
						rem, msi, i, rem-cum, local, found)
				}
				matched = true
				break
			}
			cum += ms.w[i]
		}
		if !matched {
			if found {
				sm.t.Fatalf("view seek(%d): model exhausts, view found local %d", rem, local)
			}
			if n != last.Children[1] || local != rem-cum {
				sm.t.Fatalf("view seek(%d): exhaust remainder %d, view %d", rem, rem-cum, local)
			}
		}
	}
	if live > 0 && v.Spines() != live {
		sm.t.Fatalf("view covers %d spines, model has %d live", v.Spines(), live)
	}
	if live == 0 && v != nil {
		sm.t.Fatalf("view non-nil over an empty model")
	}
}

func (sm *spineModel) adjust(msi, pos int, delta int64) {
	ms := sm.spines[msi]
	if ms.w[pos]+delta < 1 {
		return
	}
	sm.m.adjustWeight(ms.nodes[pos], delta)
	ms.w[pos] += delta
}

// checkSeek compares a seek from a random entry against the model's
// prefix-sum answer.
func (sm *spineModel) checkSeek(msi, pos int, rng *rand.Rand) {
	ms := sm.spines[msi]
	var total int64
	for _, wi := range ms.w[pos:] {
		total += wi
	}
	rem := int64(rng.Intn(int(total) + 20))
	ck, off, ok := sm.m.spineAt(ms.nodes[pos])
	if !ok {
		sm.t.Fatalf("seek: entry %d/%d lost its slot", msi, pos)
	}
	eck, eoff, local, found := sm.m.seek(ck, off, rem)
	// Model answer.
	var cum int64
	for i := pos; i < len(ms.nodes); i++ {
		if cum+ms.w[i] > rem {
			if !found {
				sm.t.Fatalf("seek(%d): model finds entry %d, index exhausted", rem, i)
			}
			if eck.nodes[eoff] != ms.nodes[i] || local != rem-cum {
				sm.t.Fatalf("seek(%d): model entry %d local %d, index entry %p local %d",
					rem, i, rem-cum, eck.nodes[eoff], local)
			}
			return
		}
		cum += ms.w[i]
	}
	if found {
		sm.t.Fatalf("seek(%d): model exhausts, index found local %d", rem, local)
	}
	if eck.nodes[eoff] != ms.nodes[len(ms.nodes)-1] || local != rem-cum {
		sm.t.Fatalf("seek(%d): exhaust remainder %d, index %d", rem, rem-cum, local)
	}
}

// checkInvariants validates the chunked storage against the model:
// entry order, weights, chunk sums, slot table round-trips, and the
// live-entry gauge.
func (sm *spineModel) checkInvariants() {
	totalEntries := 0
	for msi, ms := range sm.spines {
		totalEntries += len(ms.nodes)
		if len(ms.nodes) == 0 {
			continue
		}
		ck, off, ok := sm.m.spineAt(ms.nodes[0])
		if !ok {
			sm.t.Fatalf("spine %d: head lost its slot", msi)
		}
		sp := ck.sp
		if off != 0 || ck.idx != 0 {
			sm.t.Fatalf("spine %d: head at chunk %d off %d", msi, ck.idx, off)
		}
		i := 0
		for _, c := range sp.chunks {
			var sum int64
			for j, n := range c.nodes {
				if i >= len(ms.nodes) || n != ms.nodes[i] {
					sm.t.Fatalf("spine %d: entry %d mismatch", msi, i)
				}
				if c.w[j] != ms.w[i] {
					sm.t.Fatalf("spine %d: entry %d weight %d, want %d", msi, i, c.w[j], ms.w[i])
				}
				cck, coff, ok := sm.m.spineAt(n)
				if !ok || cck != c || coff != j {
					sm.t.Fatalf("spine %d: entry %d slot does not round-trip", msi, i)
				}
				sum += c.w[j]
				i++
			}
			if sum != c.sum {
				sm.t.Fatalf("spine %d: chunk sum %d, want %d", msi, c.sum, sum)
			}
			if c.sp != sp {
				sm.t.Fatal("chunk belongs to the wrong spine")
			}
		}
		if i != len(ms.nodes) {
			sm.t.Fatalf("spine %d: %d entries indexed, model has %d", msi, i, len(ms.nodes))
		}
	}
	if sm.m.stats.Entries != totalEntries {
		sm.t.Fatalf("Entries gauge %d, model %d", sm.m.stats.Entries, totalEntries)
	}
}

// driveSpineModel runs one scripted op sequence; ops come from data so
// the same body serves the deterministic test and the fuzz target.
func driveSpineModel(t *testing.T, data []byte) {
	sm := &spineModel{t: t, m: NewMemo()}
	rng := rand.New(rand.NewSource(1))
	sm.register(40+int(uint(len(data))%200), rng)
	sm.checkInvariants()
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		msi, pos := sm.pick(rng)
		if msi < 0 {
			sm.register(20, rng)
			sm.checkInvariants()
			continue
		}
		switch op % 7 {
		case 0:
			sm.insert(msi, pos, rng)
		case 1:
			sm.remove(msi, pos)
		case 2:
			sm.removeSplit(msi, pos)
		case 3:
			sm.adjust(msi, pos, int64(int8(arg)))
		case 4:
			sm.checkSeek(msi, pos, rng)
		case 5:
			sm.splitMerge(msi, pos)
		case 6:
			sm.checkView(rng)
		}
		sm.checkInvariants()
	}
}

// TestSpineIndexModel drives the chunked spine index against the slice
// model with scripted and random sequences covering splits, removals,
// weight adjustments, and seeks.
func TestSpineIndexModel(t *testing.T) {
	seqs := [][]byte{
		{0, 0, 0, 0, 4, 9, 1, 0, 4, 7},
		{2, 0, 4, 1, 2, 0, 4, 2, 1, 0, 4, 3},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		seq := make([]byte, 160)
		rng.Read(seq)
		seqs = append(seqs, seq)
	}
	for i, seq := range seqs {
		t.Run("", func(t *testing.T) {
			_ = i
			driveSpineModel(t, seq)
		})
	}
}

// FuzzSpineIndex fuzzes the spine-index invariants against the
// reference slice model (CI runs a short smoke of this; see the fuzz
// job).
func FuzzSpineIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 4, 9})
	f.Add([]byte{1, 1, 1, 1, 0, 0, 0, 0, 3, 200, 4, 4})
	f.Add([]byte{5, 0, 5, 1, 5, 2, 6, 0})             // split→merge cycles + view
	f.Add([]byte{6, 3, 5, 0, 6, 7, 4, 9, 5, 0, 6, 1}) // view, merge, seek interleaved
	f.Add([]byte{2, 0, 0, 0, 6, 200, 1, 1, 6, 0})     // split, insert, view, remove, view
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		driveSpineModel(t, data)
	})
}

// TestSlotTableLimitRebuild pins the memoLimit path: registering a
// spine with the slot table at its limit must keep the spine fully
// functional (stamping may overshoot the limit), and the next descent
// rebuilds the table without leaving zombie spine slots behind — no
// seek may ever observe a dropped spine's empty chunk list.
func TestSlotTableLimitRebuild(t *testing.T) {
	m := NewMemo()
	// Fill the table to the limit with plain entries.
	filler := make([]*xmltree.Node, 0, memoLimit)
	for len(m.entries) < memoLimit {
		n := xmltree.NewBottom()
		m.put(n, 9)
		filler = append(filler, n)
	}
	// Register a spine entirely past the limit.
	nodes := make([]*xmltree.Node, 100)
	w := make([]int64, 100)
	for i := range nodes {
		nodes[i] = elemNode()
		w[i] = 3
	}
	m.registerSpine(nodes, w)
	ck, off, ok := m.spineAt(nodes[0])
	if !ok {
		t.Fatal("spine registered at the limit lost its slots")
	}
	// The spine must be consistent: a deep seek walks all chunks.
	if eck, eoff, local, found := m.seek(ck, off, 3*99+1); !found || eck.nodes[eoff] != nodes[99] || local != 1 {
		t.Fatalf("seek across the over-limit spine misrouted (found=%v local=%d)", found, local)
	}
	// The next descent rebuilds the table and drops every spine cleanly.
	m.beginDescent()
	if len(m.entries) != 0 || m.stats.Entries != 0 || m.stats.Spines != 0 {
		t.Fatalf("rebuild incomplete: %d slots, %+v", len(m.entries), m.stats)
	}
	for _, n := range nodes {
		if _, _, ok := m.spineAt(n); ok {
			t.Fatal("zombie spine slot survived the rebuild")
		}
	}
	_ = filler
}

// flatChainGrammar builds an uncompressed single-rule grammar over a
// flat document of n records — one long explicit next-sibling chain.
func flatChainGrammar(n int) *grammar.Grammar {
	root := xmltree.NewUnranked("log")
	for i := 0; i < n; i++ {
		root.Children = append(root.Children,
			xmltree.NewUnranked("rec", xmltree.NewUnranked("f1"), xmltree.NewUnranked("f2")))
	}
	doc := root.Binary()
	return grammar.FromDocument(doc)
}

// TestIndexedDescentAllocFree pins the steady-state indexed descent at
// zero allocations: once the spine is registered, repeat isolations of
// a deep position must only probe, seek, and return.
func TestIndexedDescentAllocFree(t *testing.T) {
	g := flatChainGrammar(600)
	sizes, err := g.ValSizes()
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo()
	total := sizes.Get(g.Start).Total
	pos := total - 2
	for i := 0; i < 8; i++ { // register + settle
		if _, err := IsolateMemo(g, pos, sizes, memo); err != nil {
			t.Fatal(err)
		}
	}
	if memo.Frontier().Entries == 0 {
		t.Fatalf("spine not indexed: %+v", memo.Frontier())
	}
	jumpsBefore := memo.Frontier().Jumps
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := IsolateMemo(g, pos, sizes, memo); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("indexed descent allocates: %v allocs/op", allocs)
	}
	if memo.Frontier().Jumps == jumpsBefore {
		t.Fatal("descents did not use the index")
	}
}

// TestFrontierDescentMatchesNaive cross-checks the indexed descent
// against a naive memo on compressed random documents: every preorder
// position must isolate to the same label with identical val.
func TestFrontierDescentMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		u := randomUnranked(rng, 40+rng.Intn(200), []string{"a", "b", "c"})
		doc := u.Binary()
		gi, _ := treerepair.Compress(doc, treerepair.Options{})
		gn := gi.Clone()
		si, err := gi.ValSizes()
		if err != nil {
			t.Fatal(err)
		}
		sn, err := gn.ValSizes()
		if err != nil {
			t.Fatal(err)
		}
		mi, mn := NewMemo(), NewMemo()
		mn.DisableIndex()
		total := si.Get(gi.Start).Total
		for p := int64(0); p < total; p++ {
			pi, err := IsolateMemo(gi, p, si, mi)
			if err != nil {
				t.Fatalf("indexed isolate(%d): %v", p, err)
			}
			pn, err := IsolateMemo(gn, p, sn, mn)
			if err != nil {
				t.Fatalf("naive isolate(%d): %v", p, err)
			}
			if pi.Node.Label != pn.Node.Label {
				t.Fatalf("p=%d: indexed label %v, naive %v", p, pi.Node.Label, pn.Node.Label)
			}
		}
		ti, err := gi.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		if !xmltree.Equal(ti, doc.Root) {
			t.Fatal("indexed isolation changed val")
		}
	}
}
