package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoCoversEveryIndexOnce proves each index runs exactly once for
// various sizes, with and without tokens available.
func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, extra := range []int{0, 1, 7} {
		prev := SetExtraWorkers(extra)
		for _, n := range []int{0, 1, 2, 3, 17, 256} {
			counts := make([]atomic.Int64, n)
			Do(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("extra=%d n=%d: index %d ran %d times", extra, n, i, got)
				}
			}
		}
		SetExtraWorkers(prev)
	}
}

// TestDoSequentialWithoutTokens proves Do degrades to the inline loop
// (in index order, on the calling goroutine) when the pool is empty.
func TestDoSequentialWithoutTokens(t *testing.T) {
	prev := SetExtraWorkers(0)
	defer SetExtraWorkers(prev)
	var order []int
	Do(10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order[%d] = %d", i, v)
		}
	}
	if len(order) != 10 {
		t.Fatalf("ran %d items, want 10", len(order))
	}
}

// TestDoInlineAtOneProc: with the pool following GOMAXPROCS, a process
// that lowers GOMAXPROCS to 1 after start gets no extra worker, so Do
// runs every item on the calling goroutine, in index order, and starts
// no goroutine.
func TestDoInlineAtOneProc(t *testing.T) {
	prevPin := SetExtraWorkers(-1)
	defer SetExtraWorkers(prevPin)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := runtime.NumGoroutine()
	var order []int
	Do(64, func(i int) {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("item %d: %d goroutines, %d before Do", i, n, before)
		}
		order = append(order, i)
	})
	if len(order) != 64 {
		t.Fatalf("ran %d items, want 64", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want index order", i, v)
		}
	}
}

// TestPinnedWorkersAtOneProc: SetExtraWorkers pins the pool whatever
// GOMAXPROCS is, so at GOMAXPROCS 1 four items still run at once, one
// on the calling goroutine and three on extra workers: each item waits
// until all four have started, which an inline loop would never see.
func TestPinnedWorkersAtOneProc(t *testing.T) {
	prevPin := SetExtraWorkers(3)
	defer SetExtraWorkers(prevPin)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 4
	var started atomic.Int64
	all := make(chan struct{})
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	Do(n, func(i int) {
		if started.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
		case <-ctx.Done():
			t.Errorf("item %d: %d of %d items started; the pinned workers did not run", i, started.Load(), n)
		}
	})
	if got := busy.Load(); got != 0 {
		t.Errorf("%d tokens held after Do returned", got)
	}
}

// TestTokensReturned proves Do releases every token it acquires.
func TestTokensReturned(t *testing.T) {
	prev := SetExtraWorkers(4)
	defer SetExtraWorkers(prev)
	for i := 0; i < 50; i++ {
		Do(16, func(int) {})
	}
	if got := busy.Load(); got != 0 {
		t.Fatalf("%d tokens held after quiescence, want 0", got)
	}
	if got := acquire(100); got != 4 {
		t.Fatalf("acquired %d tokens from a pool pinned at 4", got)
	}
	busy.Add(-4)
}

// TestNestedDo proves nested fan-outs complete (inner calls simply see
// fewer or no tokens — no deadlock, no lost items).
func TestNestedDo(t *testing.T) {
	prev := SetExtraWorkers(2)
	defer SetExtraWorkers(prev)
	var total atomic.Int64
	Do(8, func(int) {
		Do(8, func(int) { total.Add(1) })
	})
	if got := total.Load(); got != 64 {
		t.Fatalf("nested Do ran %d inner items, want 64", got)
	}
}
