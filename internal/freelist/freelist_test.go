package freelist

import (
	"sync"
	"testing"
)

// TestListReuse checks that Put states come back LIFO, that New runs only
// when no state is idle, and that at most maxIdle states are kept.
func TestListReuse(t *testing.T) {
	built := 0
	l := List[int]{New: func() *int { built++; return new(int) }}
	a, b := l.Get(), l.Get()
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a || built != 2 {
		t.Fatalf("idle states not reused LIFO (%d built)", built)
	}
	xs := make([]*int, maxIdle+3)
	for i := range xs {
		xs[i] = l.Get()
	}
	for _, x := range xs {
		l.Put(x)
	}
	if len(l.idle) != maxIdle {
		t.Fatalf("%d idle states kept, want %d", len(l.idle), maxIdle)
	}
}

// TestListConcurrent gets and puts states from several goroutines at
// once; under -race it checks the list's synchronization, and every
// goroutine checks that no other holds its state while it does.
func TestListConcurrent(t *testing.T) {
	type state struct{ owner int }
	l := List[state]{New: func() *state { return new(state) }}
	var wg sync.WaitGroup
	for w := 1; w <= 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s := l.Get()
				if s.owner != 0 {
					t.Errorf("worker %d got a state worker %d holds", w, s.owner)
					return
				}
				s.owner = w
				s.owner = 0
				l.Put(s)
			}
		}(w)
	}
	wg.Wait()
}
