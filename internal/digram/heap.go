package digram

// MaxCount saturates queue counts. GrammarRePair weights generators by
// rule usage, which grows exponentially on highly compressible grammars;
// only the order of frequencies matters, and a large finite cap (instead
// of +Inf) keeps count deltas well-defined.
const MaxCount = 1e300

// zeroCount is the residue below which an Add result counts as 0:
// subtracting usage-weighted contributions in a different order than they
// were added can leave tiny positive float remainders.
const zeroCount = 1e-9

// Queue holds the current frequency of every digram and orders the
// digrams by it. It is an exact indexed max-heap: the heap holds one entry
// per digram whose count is > 0, and a count change moves that entry in
// place instead of pushing a new one.
//
// Every digram the queue has seen gets a dense slot ID through one flat
// Table lookup; the slot holds the digram's count and its heap position,
// and the heap itself is a slice of slot IDs. A count change therefore
// costs one hash, and sift swaps fix positions by slot ID without hashing.
// Slots are never freed: a digram whose count drops to 0 leaves the heap
// but keeps its slot, so re-inserting it costs no allocation.
//
// Order is count descending, then Key ascending (which equals Digram.Less),
// so compression runs are deterministic. Counts are float64 because
// GrammarRePair weights generators by rule usage counts.
//
// The zero Queue is ready to use.
type Queue struct {
	ids   Table[int32] // Key -> slot ID + 1 (0 = no slot yet)
	slots []slot
	heap  []int32 // slot IDs
}

type slot struct {
	key   Key
	count float64
	pos   int32 // index in heap; -1 while the count is 0
}

// Update sets the frequency of d. A count ≤ 0 removes d from the heap.
func (q *Queue) Update(d Digram, count float64) {
	q.set(q.slotOf(d.Key()), count)
}

// Add changes the frequency of d by delta. The result saturates at
// MaxCount, and a result ≤ 1e-9 (float residue of removed contributions)
// becomes 0, which removes d from the heap.
func (q *Queue) Add(d Digram, delta float64) {
	id := q.slotOf(d.Key())
	c := q.slots[id].count + delta
	if c > MaxCount {
		c = MaxCount
	}
	if c <= zeroCount {
		c = 0
	}
	q.set(id, c)
}

// Count returns the current frequency of d (0 if absent).
func (q *Queue) Count(d Digram) float64 {
	id, _ := q.ids.Get(d.Key())
	if id == 0 {
		return 0
	}
	return q.slots[id-1].count
}

// Best returns the digram with the highest frequency, provided that
// frequency is ≥ 2; ok=false means no such digram is left. The digram
// stays queued: the compressors replace it, and the replacement itself
// lowers its count.
func (q *Queue) Best() (d Digram, count float64, ok bool) {
	if len(q.heap) == 0 {
		return Digram{}, 0, false
	}
	s := &q.slots[q.heap[0]]
	if s.count < 2 {
		return Digram{}, 0, false
	}
	return s.key.Digram(), s.count, true
}

// Len returns the number of digrams whose count is > 0.
func (q *Queue) Len() int { return len(q.heap) }

// Reset empties the queue, keeping its capacity.
func (q *Queue) Reset() {
	q.ids.Clear()
	q.slots = q.slots[:0]
	q.heap = q.heap[:0]
}

// Slot returns the slot ID of digram key k, creating an empty slot on
// first sight. Slot IDs are dense and stable for the queue's lifetime
// (Reset aside), so callers can keep per-digram side tables in slices
// indexed by them instead of in a second hash table.
func (q *Queue) Slot(k Key) int32 { return q.slotOf(k) }

// slotOf returns k's slot ID, creating an empty slot on first sight.
func (q *Queue) slotOf(k Key) int32 {
	p := q.ids.Ref(k)
	if *p == 0 {
		q.slots = append(q.slots, slot{key: k, pos: -1})
		*p = int32(len(q.slots))
	}
	return *p - 1
}

// set stores a new count in slot id and restores the heap order.
func (q *Queue) set(id int32, c float64) {
	s := &q.slots[id]
	old := s.count
	s.count = c
	switch i := int(s.pos); {
	case i < 0:
		if c > 0 {
			s.pos = int32(len(q.heap))
			q.heap = append(q.heap, id)
			q.up(len(q.heap) - 1)
		}
	case c <= 0:
		q.remove(i)
	case c > old:
		q.up(i)
	case c < old:
		q.down(i)
	}
}

// remove deletes the heap entry at position i.
func (q *Queue) remove(i int) {
	n := len(q.heap) - 1
	q.slots[q.heap[i]].pos = -1
	if i != n {
		q.heap[i] = q.heap[n]
		q.slots[q.heap[i]].pos = int32(i)
	}
	q.heap = q.heap[:n]
	if i != n {
		// The moved entry may belong above or below position i.
		q.down(i)
		q.up(i)
	}
}

// before orders heap positions: count descending, then key ascending.
func (q *Queue) before(i, j int) bool {
	a, b := &q.slots[q.heap[i]], &q.slots[q.heap[j]]
	if a.count != b.count {
		return a.count > b.count
	}
	return a.key < b.key
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.slots[q.heap[i]].pos = int32(i)
	q.slots[q.heap[j]].pos = int32(j)
}

func (q *Queue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !q.before(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.before(j2, j) {
			j = j2
		}
		if !q.before(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
}
