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
// digrams by it. It is an exact indexed max-heap with one entry per
// digram whose count is > 0, repaired lazily: a count change is stored
// at once and marks the digram's slot dirty, and the heap is repaired
// only when it is asked for its order (Best, Len). The repair re-sifts
// each dirty slot once, however often its count changed since the last
// repair, or heapifies the whole heap once when most of it is dirty (as
// after a compressor's full occurrence rebuild).
//
// Every digram the queue has seen gets a dense slot ID through one flat
// Table lookup; the slot holds the digram's live count, the count the
// heap last ordered it by, and its heap position, and the heap itself is
// a slice of slot IDs. A count change therefore costs one hash (none
// through SetSlot), and sift swaps fix positions by slot ID without
// hashing. Slots are never freed: a digram whose count drops to 0 leaves
// the heap but keeps its slot, so re-inserting it costs no allocation.
//
// Order is count descending, then Key ascending (which equals Digram.Less),
// so compression runs are deterministic: the order is total, so the top
// does not depend on the sequence of sifts that led to it. Counts are
// float64 because GrammarRePair weights generators by rule usage counts.
//
// The zero Queue is ready to use.
type Queue struct {
	ids   Table[int32] // Key -> slot ID + 1 (0 = no slot yet)
	slots []slot
	heap  []int32 // slot IDs, ordered by held counts
	dirty []int32 // slots whose count changed since the last repair
}

type slot struct {
	key   Key
	count float64 // live count
	held  float64 // count the heap orders this slot by
	pos   int32   // index in heap; -1 while not queued
	dirty bool    // listed in Queue.dirty
}

// SetSlot sets the frequency of the digram with slot ID id (see Slot),
// without hashing. A count ≤ 0 removes it from the heap. The count is
// stored at once; the next repair moves the digram's heap entry.
func (q *Queue) SetSlot(id int32, count float64) {
	s := &q.slots[id]
	s.count = count
	if !s.dirty {
		s.dirty = true
		q.dirty = append(q.dirty, id)
	}
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
	q.SetSlot(id, c)
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
	q.repair()
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
func (q *Queue) Len() int {
	q.repair()
	return len(q.heap)
}

// Reset empties the queue, keeping its capacity.
func (q *Queue) Reset() {
	q.ids.Clear()
	q.slots = q.slots[:0]
	q.heap = q.heap[:0]
	q.dirty = q.dirty[:0]
}

// Zero sets every count to 0, keeping the slots and their IDs: a
// compressor that rebuilds its occurrence counts from scratch keeps its
// per-slot side tables.
func (q *Queue) Zero() {
	for i := range q.slots {
		s := &q.slots[i]
		s.count, s.held, s.pos, s.dirty = 0, 0, -1, false
	}
	q.heap = q.heap[:0]
	q.dirty = q.dirty[:0]
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

// repair restores the heap order over the live counts. Every slot not
// dirty holds its live count already; each dirty slot takes its live
// count once and moves once. When most of the heap is dirty, one
// bottom-up heapify is cheaper than a sift per dirty slot.
func (q *Queue) repair() {
	if len(q.dirty) == 0 {
		return
	}
	if 2*len(q.dirty) > len(q.heap) {
		q.heapify()
		return
	}
	for _, id := range q.dirty {
		s := &q.slots[id]
		s.dirty = false
		old, c := s.held, s.count
		s.held = c
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
	q.dirty = q.dirty[:0]
}

// heapify takes every dirty slot's live count, rebuilds the heap's entry
// set (dropping slots whose count fell to 0, adding those that rose from
// it) and restores the order bottom-up.
func (q *Queue) heapify() {
	for _, id := range q.dirty {
		s := &q.slots[id]
		s.dirty = false
		s.held = s.count
		if s.pos < 0 && s.count > 0 {
			s.pos = int32(len(q.heap))
			q.heap = append(q.heap, id)
		}
	}
	q.dirty = q.dirty[:0]
	h := q.heap[:0]
	for _, id := range q.heap {
		if s := &q.slots[id]; s.held > 0 {
			s.pos = int32(len(h))
			h = append(h, id)
		} else {
			s.pos = -1
		}
	}
	q.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
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

// before orders heap positions by held count descending, then key
// ascending.
func (q *Queue) before(i, j int) bool {
	a, b := &q.slots[q.heap[i]], &q.slots[q.heap[j]]
	if a.held != b.held {
		return a.held > b.held
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
