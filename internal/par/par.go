// Package par bounds the process-wide compute parallelism of the inner
// (per-destination) loops so they compose with the outer scenario-level
// worker pool instead of multiplying against it.
//
// A global token pool holds GOMAXPROCS-1 tokens, read at every Do call,
// so a process that lowers GOMAXPROCS after start runs its loops inline
// from then on; SetExtraWorkers pins the size instead. Every Do call
// runs items on the calling goroutine — which already occupies a
// scheduling slot of its own — and additionally on one goroutine per
// token it manages to acquire; tokens are returned when the call
// finishes. With S concurrent scenario workers each fanning out over
// destinations, the total number of running goroutines stays bounded by
// S plus the token count, whatever the nesting: an oversubscribed pool
// simply hands out no tokens and every Do degrades to the sequential
// loop, which starts no goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	// busy is the number of tokens Do calls hold.
	busy atomic.Int64
	// pinned is the pool size SetExtraWorkers set, or -1 while the size
	// follows GOMAXPROCS.
	pinned atomic.Int64
)

func init() {
	pinned.Store(-1)
}

// SetExtraWorkers pins the global token pool at n extra workers,
// whatever GOMAXPROCS is (n = 0 forces every Do sequential), and returns
// the previous pin, -1 if the pool followed GOMAXPROCS. A negative n
// makes the pool follow GOMAXPROCS again, so SetExtraWorkers(prev)
// restores either state. It is a testing and benchmarking hook: the
// sequential/parallel parity suites flip it to prove bit-identical
// results. Do calls in flight keep the tokens they hold; a smaller pool
// grants no more until enough are returned.
func SetExtraWorkers(n int) int {
	if n < 0 {
		n = -1
	}
	return int(pinned.Swap(int64(n)))
}

// size is the number of tokens the pool holds: the pin, or GOMAXPROCS-1.
func size() int64 {
	if n := pinned.Load(); n >= 0 {
		return n
	}
	return int64(runtime.GOMAXPROCS(0) - 1)
}

// acquire takes up to want tokens from the pool and returns how many it
// got (possibly zero).
func acquire(want int) int {
	limit := size()
	for {
		held := busy.Load()
		free := limit - held
		if free <= 0 {
			return 0
		}
		take := min(int64(want), free)
		if busy.CompareAndSwap(held, held+take) {
			return int(take)
		}
	}
}

// Do runs fn(0), ..., fn(n-1), using the calling goroutine plus however
// many extra workers the global token pool grants (possibly none, in
// which case the loop runs inline, in index order, and starts no
// goroutine). Do returns after every item has completed. fn must
// confine its writes to item-private state: items run concurrently in
// arbitrary order, and the result must not depend on that order —
// which is what keeps parallel evaluation bit-identical to sequential.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	extra := acquire(n - 1)
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	defer busy.Add(int64(-extra))
	var next atomic.Int64
	run := func() {
		for {
			i := next.Add(1) - 1
			if i >= int64(n) {
				return
			}
			fn(int(i))
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 0; w < extra; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
