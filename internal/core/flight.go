package core

import "sync"

// Flight is a keyed singleflight memo: the first Do for a key runs fn
// exactly once, every concurrent or later Do for the same key waits for
// (or immediately gets) that one result. It unifies the scheduler's three
// former hand-rolled disciplines — the dataset memo, the per-dataset run
// locks, and the query server's per-replica sync.Once — into one helper:
// both the runner's snapshot cache and the server's snapshot generation
// now go through a Flight.
//
// Results (including errors) are cached forever; Flight keys must
// therefore be deterministic configurations whose outcome never changes
// between calls, which is exactly what frozen dataset snapshots are.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]
}

type flightCall[V any] struct {
	once sync.Once
	v    V
	err  error
}

// Do returns the singleflight result of fn for key.
func (f *Flight[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[K]*flightCall[V])
	}
	c, ok := f.calls[key]
	if !ok {
		c = &flightCall[V]{}
		f.calls[key] = c
	}
	f.mu.Unlock()
	c.once.Do(func() { c.v, c.err = fn() })
	return c.v, c.err
}
