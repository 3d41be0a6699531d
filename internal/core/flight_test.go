package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Len returns the number of keys ever flown (completed or in flight).
func (f *Flight[K, V]) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// TestFlightSingleflight hammers one key from many goroutines: fn runs
// exactly once, everyone gets its result, and distinct keys fly
// separately.
func TestFlightSingleflight(t *testing.T) {
	var f Flight[string, int]
	var calls atomic.Int32
	const callers = 32
	results := make([]int, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f.Do("k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("caller %d got (%d, %v)", i, results[i], errs[i])
		}
	}
	if _, err := f.Do("other", func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
}

// TestFlightCachesErrors pins the documented contract: a failed flight is
// remembered, not retried — keys must be deterministic configurations.
func TestFlightCachesErrors(t *testing.T) {
	var f Flight[int, string]
	calls := 0
	boom := fmt.Errorf("generation failed")
	for i := 0; i < 3; i++ {
		_, err := f.Do(1, func() (string, error) {
			calls++
			return "", boom
		})
		if err != boom {
			t.Fatalf("call %d: err = %v, want the original error", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed fn retried %d times, want cached after 1", calls)
	}
}
