package sweep

import (
	"runtime"
	"sync"
)

// CoreBudget caps how many simulations run at once across every pool that
// shares it — a server's run, sweep, and chaos jobs all draw from one
// budget — at one slot per run. Each run Acquires a slot before building
// its kernel and Releases it after, so no mix of concurrent sweeps,
// campaigns, or service jobs ever has more than Total() kernels in flight.
// Acquisition order never affects results (every run is independent and
// deterministic), so the budget needs no fairness guarantees beyond not
// starving: a Release wakes one waiter.
type CoreBudget struct {
	slots chan struct{} // one buffered token per run in flight

	mu   sync.Mutex
	peak int
}

// NewCoreBudget creates a budget of total run slots; total <= 0 means
// GOMAXPROCS.
func NewCoreBudget(total int) *CoreBudget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	return &CoreBudget{slots: make(chan struct{}, total)}
}

// Total returns the budget's slot count.
func (b *CoreBudget) Total() int { return cap(b.slots) }

// Acquire blocks until a slot is free and takes it.
func (b *CoreBudget) Acquire() {
	b.slots <- struct{}{}
	b.mu.Lock()
	b.peak = max(b.peak, len(b.slots))
	b.mu.Unlock()
}

// Release returns a slot taken by Acquire. Releasing more than was
// acquired is a loud bug, not silent capacity inflation.
func (b *CoreBudget) Release() {
	select {
	case <-b.slots:
	default:
		panic("sweep: CoreBudget over-released")
	}
}

// Peak returns the high-water mark of slots held at once. A test that
// drives a budget through a full sweep asserts Peak() <= Total() — the
// no-oversubscription pin.
func (b *CoreBudget) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}
