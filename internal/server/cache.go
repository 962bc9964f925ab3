package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"haac/internal/circuit"
)

// PlanCache is the shared, thread-safe cache of precompiled execution
// plans behind a server: the first session requesting a circuit builds
// its plan exactly once (singleflight — concurrent first requests block
// on the same build instead of duplicating it), later sessions share
// the immutable result, and an LRU bound keeps the resident plan set of
// a many-circuit server finite. Hit/miss/eviction counters expose the
// amortization the serving layer exists to deliver.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	lru     *list.List // front = most recently used *planEntry

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type planEntry struct {
	key  string
	elem *list.Element
	once sync.Once
	plan *circuit.Plan
	err  error
	// ready flips true once the build completed successfully. Only a
	// ready entry counts as a hit: a request that joins an in-flight (or
	// subsequently failing) singleflight build did not find a warm plan,
	// and hit/miss is the routing-quality signal a sharded proxy steers
	// by, so it must record a miss.
	ready atomic.Bool
}

// NewPlanCache returns a cache bounded to capacity entries (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		cap:     capacity,
		entries: make(map[string]*planEntry),
		lru:     list.New(),
	}
}

// Get returns the plan cached under key, building it with build on the
// first request of a residency. Concurrent callers of a missing key
// share one build; a failed build is not cached, so the next request
// retries. A request only counts as a hit when it finds a completed
// build — joining an in-flight singleflight build, or sharing a build
// that then fails, records a miss. Evicting a plan other sessions still
// execute is safe: plans are immutable, the evicted entry just stops
// being shared.
func (pc *PlanCache) Get(key string, build func() (*circuit.Plan, error)) (*circuit.Plan, error) {
	pc.mu.Lock()
	e, ok := pc.entries[key]
	if ok {
		pc.lru.MoveToFront(e.elem)
	} else {
		e = &planEntry{key: key}
		e.elem = pc.lru.PushFront(e)
		pc.entries[key] = e
		for len(pc.entries) > pc.cap {
			oldest := pc.lru.Back()
			old := oldest.Value.(*planEntry)
			pc.lru.Remove(oldest)
			delete(pc.entries, old.key)
			pc.evictions.Add(1)
		}
	}
	pc.mu.Unlock()

	if ok && e.ready.Load() {
		pc.hits.Add(1)
	} else {
		pc.misses.Add(1)
	}
	e.once.Do(func() {
		e.plan, e.err = build()
		if e.err == nil {
			e.ready.Store(true)
		}
	})
	if e.err != nil {
		pc.mu.Lock()
		if cur, ok := pc.entries[key]; ok && cur == e {
			pc.lru.Remove(e.elem)
			delete(pc.entries, key)
		}
		pc.mu.Unlock()
	}
	return e.plan, e.err
}

// CacheCounters is a snapshot of the cache's hit/miss/eviction totals.
type CacheCounters struct {
	Hits, Misses, Evictions uint64
}

// Counters returns the current counter snapshot.
func (pc *PlanCache) Counters() CacheCounters {
	return CacheCounters{
		Hits:      pc.hits.Load(),
		Misses:    pc.misses.Load(),
		Evictions: pc.evictions.Load(),
	}
}
