// Package conc holds the fork-join primitive of the worker pools the TTI
// engine and the master's RIB updater no longer have.
//
// Deprecated: no package outside bench/ imports it (static_test.go
// enforces that); kept for bench/ until ROADMAP item B.
package conc

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n), fanning the indices out
// across up to workers goroutines that claim work off a shared counter,
// and returns only when every call has finished (the phase barrier the
// TTI engine relies on). With workers <= 1 it runs inline on the caller.
func ForEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
