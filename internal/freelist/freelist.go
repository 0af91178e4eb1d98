// Package freelist keeps idle run states for reuse. The compressors take
// one state per run and hand it back emptied, so that a warm run
// allocates its output, not its scratch.
//
// Unlike a sync.Pool, a List is one mutex-guarded stack shared by every
// P: a state put back by a run on one P is handed to the next Get
// wherever that runs, and a garbage collection does not drop it. A Get
// builds a new state only when every state is in use.
package freelist

import "sync"

// maxIdle bounds the idle states a List keeps; a Put beyond it drops
// the state. It is above the number of runs that overlap in practice
// (one per busy document writer), and it bounds what idle lists pin.
const maxIdle = 8

// List is a free list of *T. New builds a state when none is idle; it
// must be set before the first Get.
type List[T any] struct {
	New func() *T

	mu   sync.Mutex
	idle []*T
}

// Get returns an idle state, or a new one when none is idle.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		x := l.idle[n-1]
		l.idle[n-1] = nil
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return l.New()
}

// Put hands an emptied state back. The caller must not use it after.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	if len(l.idle) < maxIdle {
		l.idle = append(l.idle, x)
	}
	l.mu.Unlock()
}
