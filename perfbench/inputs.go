package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	sltgrammar "repro"
	"repro/internal/datasets"
	"repro/internal/store"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// zipfSkew is the document-popularity exponent of every schedule and
// read plan (the rand.Zipf s parameter).
const zipfSkew = 1.4

// insertPct is the insert share of the generated update streams, the
// paper's §V-C mix.
const insertPct = 90

// poolEntry is one distinct generated corpus document and an
// inverse-seeded update stream that ends at it. A fleet document
// assigned to the entry replays the last L ops of the stream, starting
// from the state L ops before the end: every document ends at its
// corpus document, and the more popular it is, the more of the stream
// it has replayed to get there.
type poolEntry struct {
	syms  *xmltree.SymbolTable
	ops   []update.Op
	final *target
	// starts holds the start state of every suffix length some document
	// replays.
	starts map[int]*target
	// nodes[i] is the binary node count of state i (the state after the
	// stream's first i ops), for the space ratio's denominator.
	nodes []int64
	// sufMin[i] is the smallest binary node count of the states i..K of
	// the stream: point queries below it stay valid from state i on.
	sufMin []int64
	// alphabet holds every label the document can carry (its symbol
	// table, ⊥ included): the stream only inserts fragments cut from the
	// document itself.
	alphabet map[string]bool
	grams    int64 // resident bytes of one freshly opened Store of final
}

// target is the state a fleet document must derive at the end of a
// round. It is the generated corpus document itself, never computed
// through the grammar code under test.
type target struct {
	syms *xmltree.SymbolTable
	// labels is the preorder label sequence of the binary tree. Every
	// element has two children and ⊥ none, so the sequence determines
	// the tree: equal sequences are equal trees.
	labels []int32
	// edges is the unranked edge count, the paper's document size
	// measure.
	edges int64
	// counts is the element-label histogram.
	counts map[string]float64
	// names lists the labels of counts, sorted.
	names []string
}

// inputs is everything a workload replays, generated from the seed
// before any timed phase.
type inputs struct {
	pool   []poolEntry
	ids    []string
	ops    int // ops per round
	rounds []*roundInputs
	budget int64 // memory budget of a tiered fleet (0 = unbounded)
	k      int   // length of every pool stream
}

// roundInputs is one round's fleet: which pool entry each document is
// a copy of, and the round's own Zipf schedule. Rounds cycle through a
// period of distinct assignments and schedules, so a run's figures
// average over the pool and over several schedules instead of hinging
// on whichever entry happens to be hottest or on one interleaving.
type roundInputs struct {
	entry    []int // fleet document → pool entry
	replay   []int // fleet document → ops it replays (a stream suffix)
	sched    []workload.FleetBatch
	minNodes []int64 // fleet document → valid point-query range
}

// entryOf assigns fleet document d of round r to a pool entry. The
// document's corpus is fixed by d (corpora round-robin), so every round
// has the same corpus at each popularity rank; among that corpus's
// entries the assignment rotates with r, by as many entries as the
// round has documents of the corpus, so that a pool larger than the
// fleet gives each round documents the previous one did not have.
func entryOf(spec *workloadSpec, d, r int) int {
	c := len(spec.corpora)
	per := spec.pool / c
	step := (spec.docs + c - 1) / c
	return d%c + c*((d/c+r*step)%per)
}

// makeInputs builds the pool and every round's schedule. A Zipf
// schedule over streams of spec.streamOps ops, truncated to
// spec.roundOps, only depends on stream lengths, so each is drawn
// first; it fixes how many ops each fleet document replays, and each
// pool stream is then generated as long as the hottest document needs.
func makeInputs(spec *workloadSpec, seed int64) (*inputs, error) {
	in := &inputs{}
	n := spec.docs
	in.ids = make([]string, n)
	for d := range in.ids {
		in.ids[d] = fmt.Sprintf("doc-%03d", d)
	}
	period := spec.pool / len(spec.corpora)

	placeholder := make([]update.Op, spec.streamOps)
	streams := make([][]update.Op, n)
	for d := range streams {
		streams[d] = placeholder
	}
	type slot struct{ doc, off, n int }
	slots := make([][]slot, period)
	in.rounds = make([]*roundInputs, period)
	k := 0
	need := make([]map[int]bool, spec.pool) // entry → suffix lengths replayed
	for p := range need {
		need[p] = map[int]bool{}
	}
	for r := range in.rounds {
		ri := &roundInputs{entry: make([]int, n), replay: make([]int, n)}
		ops := 0
		for _, fb := range workload.ZipfFleet(streams, spec.batch, zipfSkew, seed*int64(period)+int64(r)) {
			if ops >= spec.roundOps {
				break
			}
			slots[r] = append(slots[r], slot{fb.Doc, ri.replay[fb.Doc], len(fb.Ops)})
			ri.replay[fb.Doc] += len(fb.Ops)
			ops += len(fb.Ops)
		}
		in.ops = ops
		for d := range ri.entry {
			ri.entry[d] = entryOf(spec, d, r)
			need[ri.entry[d]][ri.replay[d]] = true
			k = max(k, ri.replay[d])
		}
		in.rounds[r] = ri
	}
	in.k = k

	// Generate the pool, two entries at a time.
	in.pool = make([]poolEntry, spec.pool)
	errs := make([]error, spec.pool)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for p := range in.pool {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer wg.Done()
			defer func() { <-sem }()
			in.pool[p], errs[p] = genEntry(spec, seed, p, k, need[p])
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	for r, ri := range in.rounds {
		ri.minNodes = make([]int64, n)
		for d, p := range ri.entry {
			ri.minNodes[d] = in.pool[p].sufMin[k-ri.replay[d]]
		}
		ri.sched = make([]workload.FleetBatch, len(slots[r]))
		for i, s := range slots[r] {
			from := k - ri.replay[s.doc] + s.off
			ri.sched[i] = workload.FleetBatch{Doc: s.doc, Ops: in.pool[ri.entry[s.doc]].ops[from : from+s.n]}
		}
	}

	if spec.tiered {
		for _, p := range in.rounds[0].entry {
			in.budget += in.pool[p].grams
		}
		in.budget = in.budget * 3 / 2
	}
	return in, nil
}

// genEntry generates pool entry p: a corpus document (corpora taken
// round-robin), an inverse-seeded stream of k operations ending at it,
// and, by one forward replay on the plain tree, the start state of
// every suffix length in need.
func genEntry(spec *workloadSpec, seed int64, p, k int, need map[int]bool) (poolEntry, error) {
	short := spec.corpora[p%len(spec.corpora)]
	c, ok := datasets.ByShort(short)
	if !ok {
		return poolEntry{}, fmt.Errorf("unknown corpus %q", short)
	}
	base := seed*1000 + int64(p)
	seq, err := workload.Updates(c.Generate(spec.scale, base), k, insertPct, base+500)
	if err != nil {
		return poolEntry{}, fmt.Errorf("workload for pool entry %d: %w", p, err)
	}
	e := poolEntry{
		syms:     seq.Seed.Syms,
		ops:      seq.Ops,
		final:    newTarget(seq.Final),
		starts:   map[int]*target{},
		nodes:    make([]int64, k+1),
		sufMin:   make([]int64, k+1),
		alphabet: map[string]bool{},
	}
	root := seq.Seed.Root.Copy()
	for i := 0; ; i++ {
		if need[k-i] {
			e.starts[k-i] = newTarget(&xmltree.Document{Syms: e.syms, Root: root})
		}
		e.nodes[i] = int64(root.Size())
		e.sufMin[i] = e.nodes[i]
		if i == k {
			break
		}
		if root, err = update.ApplyTree(e.syms, root, e.ops[i]); err != nil {
			return poolEntry{}, fmt.Errorf("replay of pool entry %d, op %d: %w", p, i, err)
		}
	}
	if !slices.Equal(preorder(root), e.final.labels) {
		return poolEntry{}, fmt.Errorf("pool entry %d: stream does not end at its document", p)
	}
	for i := k - 1; i >= 0; i-- {
		e.sufMin[i] = min(e.sufMin[i], e.sufMin[i+1])
	}
	for id := 0; id < e.syms.Len(); id++ {
		e.alphabet[e.syms.Name(int32(id))] = true
	}
	g, _ := sltgrammar.Compress(seq.Final)
	e.grams = store.New(g, store.Config{Ratio: -1}).ResidentBytes()
	return e, nil
}

func preorder(root *xmltree.Node) []int32 {
	var out []int32
	root.Walk(func(v *xmltree.Node) bool {
		out = append(out, v.Label.ID)
		return true
	})
	return out
}

// build rebuilds the binary tree of a preorder label sequence.
func build(labels []int32) *xmltree.Node {
	i := 0
	var rec func() *xmltree.Node
	rec = func() *xmltree.Node {
		id := labels[i]
		i++
		n := &xmltree.Node{Label: xmltree.Term(id)}
		if id != xmltree.BottomID {
			n.Children = []*xmltree.Node{rec(), rec()}
		}
		return n
	}
	return rec()
}

// startDocs materializes the start state of every fleet document of
// round ri; documents replaying the same suffix of the same entry share
// one tree (TreeRePair never modifies its input).
func (in *inputs) startDocs(ri *roundInputs) []*xmltree.Document {
	type key struct{ p, l int }
	built := map[key]*xmltree.Document{}
	docs := make([]*xmltree.Document, len(in.ids))
	for d := range docs {
		kk := key{ri.entry[d], ri.replay[d]}
		if built[kk] == nil {
			e := &in.pool[kk.p]
			built[kk] = &xmltree.Document{Syms: e.syms, Root: build(e.starts[kk.l].labels)}
		}
		docs[d] = built[kk]
	}
	return docs
}

func newTarget(doc *xmltree.Document) *target {
	t := &target{syms: doc.Syms, labels: preorder(doc.Root), counts: map[string]float64{}}
	t.edges = treeEdges(int64(len(t.labels)))
	for _, id := range t.labels {
		if id != xmltree.BottomID {
			t.counts[doc.Syms.Name(id)]++
		}
	}
	for l := range t.counts {
		t.names = append(t.names, l)
	}
	sort.Strings(t.names)
	return t
}

// treeEdges is the unranked edge count (elements − 1) of a binary tree
// of n nodes: every element has two children and ⊥ none, so a tree of e
// elements has 2e+1 nodes.
func treeEdges(n int64) int64 { return (n-1)/2 - 1 }

// matches reports whether the binary document d derives exactly t.
func (t *target) matches(d *xmltree.Document) bool {
	i := 0
	ok := true
	d.Root.Walk(func(v *xmltree.Node) bool {
		if !ok {
			return false
		}
		if i >= len(t.labels) || d.Syms.Name(v.Label.ID) != t.syms.Name(t.labels[i]) {
			ok = false
			return false
		}
		i++
		return true
	})
	return ok && i == len(t.labels)
}

// readPlan draws reads: Zipf-popular documents (or, when uniform,
// every document alike), three point queries to one label count, point
// positions uniform below the document's limit so every query is valid
// whenever it runs. targets holds each document's reference state.
type readPlan struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	targets []*target
	limits  []int64
	uniform bool
}

type readReq struct {
	doc   int
	count bool
	pre   int64
	label string
}

func newReadPlan(targets []*target, limits []int64, seed int64, uniform bool) *readPlan {
	rng := rand.New(rand.NewSource(seed))
	return &readPlan{rng: rng, zipf: rand.NewZipf(rng, zipfSkew, 1, uint64(len(targets)-1)), targets: targets, limits: limits, uniform: uniform}
}

// finalRefs returns each document's state at the end of round ri and
// the point-query range valid throughout the round.
func (in *inputs) finalRefs(ri *roundInputs) ([]*target, []int64) {
	targets := make([]*target, len(ri.entry))
	for d, p := range ri.entry {
		targets[d] = in.pool[p].final
	}
	return targets, ri.minNodes
}

// startRefs returns each document's start state in round ri and its
// node count.
func (in *inputs) startRefs(ri *roundInputs) ([]*target, []int64) {
	targets := make([]*target, len(ri.entry))
	limits := make([]int64, len(ri.entry))
	for d, p := range ri.entry {
		targets[d] = in.pool[p].starts[ri.replay[d]]
		limits[d] = int64(len(targets[d].labels))
	}
	return targets, limits
}

func (p *readPlan) next() readReq {
	d := int(p.zipf.Uint64())
	if p.uniform {
		d = p.rng.Intn(len(p.targets))
	}
	if p.rng.Intn(4) == 3 {
		names := p.targets[d].names
		return readReq{doc: d, count: true, label: names[p.rng.Intn(len(names))]}
	}
	return readReq{doc: d, pre: p.rng.Int63n(p.limits[d])}
}
