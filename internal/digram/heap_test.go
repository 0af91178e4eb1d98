package digram

import (
	"math/rand"
	"testing"
)

// update sets the frequency of d.
func update(q *Queue, d Digram, count float64) { q.SetSlot(q.Slot(d.Key()), count) }

// refQueue is the brute-force model Queue is checked against: a plain map
// of counts, searched in full for the best digram.
type refQueue map[Key]float64

func (r refQueue) add(k Key, delta float64) {
	c := r[k] + delta
	if c > MaxCount {
		c = MaxCount
	}
	if c <= zeroCount {
		c = 0
	}
	r[k] = c
}

func (r refQueue) best() (Digram, float64, bool) {
	var bk Key
	bc := 0.0
	for k, c := range r {
		if c > bc || (c == bc && c > 0 && k < bk) {
			bk, bc = k, c
		}
	}
	if bc < 2 {
		return Digram{}, 0, false
	}
	return bk.Digram(), bc, true
}

func (r refQueue) live() int {
	n := 0
	for _, c := range r {
		if c > 0 {
			n++
		}
	}
	return n
}

// checkHeap verifies, right after a repair, that no slot is left dirty,
// that every slot's held count is its live count, the heap order, and
// that every slot's recorded position matches where its ID sits.
func checkHeap(t *testing.T, q *Queue) {
	t.Helper()
	if len(q.dirty) != 0 {
		t.Fatalf("%d slots still dirty after repair", len(q.dirty))
	}
	for i, id := range q.heap {
		if got := q.slots[id].pos; int(got) != i {
			t.Fatalf("slot %d records pos %d, sits at %d", id, got, i)
		}
		if q.slots[id].count <= 0 {
			t.Fatalf("heap holds slot %d with count %v", id, q.slots[id].count)
		}
		if i > 0 && q.before(i, (i-1)/2) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
	for id, s := range q.slots {
		if s.dirty {
			t.Fatalf("slot %d still marked dirty", id)
		}
		if s.held != s.count {
			t.Fatalf("slot %d holds count %v, live count %v", id, s.held, s.count)
		}
		if s.pos < 0 && s.count > 0 {
			t.Fatalf("slot %d has count %v but is not queued", id, s.count)
		}
	}
}

// TestQueueMatchesReference drives Queue and the brute-force model with
// the same seeded random operations — absolute updates, usage-weighted increases and decreases (with float residue),
// drops to 0, the compressors' select-then-drop pattern followed by
// re-insertion, MaxCount saturation, ties on a small count range, Zero
// and Reset reuse — and compares them at every repair. Most steps change
// one count between two repairs; bursts change many (some cross 0 and
// come back, some dirty every slot, which takes the heapify path), so
// the heap is repaired after counts moved several times in either
// direction since it last ordered them.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		ref := refQueue{}
		// A small universe with small counts forces many ties.
		randDigram := func() Digram {
			return Digram{A: 1 + rng.Int31n(4), I: 1 + rng.Intn(2), B: 1 + rng.Int31n(4)}
		}
		change := func(step int, d Digram) {
			switch op := rng.Intn(100); {
			case op < 45:
				c := float64(rng.Intn(7))
				update(&q, d, c)
				ref[d.Key()] = c
			case op < 95:
				// Tenths leave float residue on the way back to 0.
				unit := []float64{0.5, 0.1}[rng.Intn(2)]
				delta := float64(rng.Intn(9)-4) * unit
				q.Add(d, delta)
				ref.add(d.Key(), delta)
				if q.Count(d) != ref[d.Key()] {
					t.Fatalf("seed %d step %d: Count after Add = %v, want %v", seed, step, q.Count(d), ref[d.Key()])
				}
			default:
				q.Add(d, MaxCount)
				ref.add(d.Key(), MaxCount)
			}
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(100); {
			case op < 70:
				change(step, randDigram())
			case op < 80:
				// A burst of changes between two repairs.
				for n := 1 + rng.Intn(40); n > 0; n-- {
					change(step, randDigram())
				}
			case op < 83:
				// Within one burst, a count drops to 0, rises from it and
				// ends where it was (no move) or at 0 (a removal).
				d := randDigram()
				c := q.Count(d)
				update(&q, d, 0)
				q.Add(d, 3)
				q.Add(d, -3)
				update(&q, d, c)
				if rng.Intn(2) == 0 {
					q.Add(d, -c)
					ref[d.Key()] = 0
				}
			case op < 86:
				// A burst that dirties every slot of the universe: the
				// repair heapifies.
				for a := int32(1); a <= 4; a++ {
					for i := 1; i <= 2; i++ {
						for b := int32(1); b <= 4; b++ {
							change(step, Digram{A: a, I: i, B: b})
						}
					}
				}
			case op < 97:
				// Select the best and replace it: its count drops to 0,
				// and it is re-inserted with a fresh count later on.
				if d, _, ok := q.Best(); ok {
					update(&q, d, 0)
					ref[d.Key()] = 0
				}
			case op < 98:
				q.Zero()
				for k := range ref {
					ref[k] = 0
				}
			default:
				q.Reset()
				clear(ref)
			}
			gd, gc, gok := q.Best()
			wd, wc, wok := ref.best()
			if gd != wd || gc != wc || gok != wok {
				t.Fatalf("seed %d step %d: Best = %v/%v/%v, want %v/%v/%v", seed, step, gd, gc, gok, wd, wc, wok)
			}
			checkHeap(t, &q)
			if q.Len() != ref.live() {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), ref.live())
			}
			if d := randDigram(); q.Count(d) != ref[d.Key()] {
				t.Fatalf("seed %d step %d: Count(%v) = %v, want %v", seed, step, d, q.Count(d), ref[d.Key()])
			}
		}
	}
}

// TestQueueOpsAllocFree guards the compressors' inner loop: once every
// digram has a slot and the heap and the dirty list have their capacity,
// SetSlot, Add and Best allocate nothing.
func TestQueueOpsAllocFree(t *testing.T) {
	var q Queue
	ds := make([]Digram, 0, 512)
	for a := int32(1); a <= 32; a++ {
		for b := int32(1); b <= 16; b++ {
			d := Digram{A: a, I: 1, B: b}
			update(&q, d, float64(b))
			ds = append(ds, d)
		}
	}
	round := 0
	allocs := testing.AllocsPerRun(100, func() {
		round++
		for i, d := range ds {
			update(&q, d, 0)
			update(&q, d, float64((i+round)%17))
			q.Add(d, 1)
			if _, _, ok := q.Best(); !ok {
				t.Fatal("queue emptied")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("queue ops allocated %.1f times per run", allocs)
	}
}
