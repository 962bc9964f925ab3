package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"haac/internal/circuit"
	"haac/internal/workloads"
)

// Len returns the number of resident plans.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// TestPlanCacheHitRequiresCompletedBuild pins the hit semantics
// deterministically: a request that joins an in-flight singleflight
// build records a miss — it did not find a warm plan — and only
// requests that find an already-completed build count as hits.
func TestPlanCacheHitRequiresCompletedBuild(t *testing.T) {
	c := workloads.AddN(8).Build()
	pc := NewPlanCache(4)
	gate := make(chan struct{})
	build := func() (*circuit.Plan, error) {
		<-gate
		return circuit.NewPlan(c)
	}

	var wg sync.WaitGroup
	plans := make([]*circuit.Plan, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := pc.Get("k", build)
			if err != nil {
				t.Errorf("Get %d: %v", i, err)
			}
			plans[i] = p
		}(i)
	}
	// Both requests record their miss before blocking on the shared
	// build, so we can observe the split while the build is in flight.
	deadline := time.Now().Add(10 * time.Second)
	for pc.Counters().Misses != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cc := pc.Counters(); cc.Misses != 2 || cc.Hits != 0 {
		t.Fatalf("counters while build in flight: %+v, want 2 misses / 0 hits", cc)
	}
	close(gate)
	wg.Wait()
	if plans[0] == nil || plans[0] != plans[1] {
		t.Fatal("singleflight joiners did not share one plan")
	}

	// Only now, against a completed build, does a request hit.
	if _, err := pc.Get("k", build); err != nil {
		t.Fatal(err)
	}
	if cc := pc.Counters(); cc.Misses != 2 || cc.Hits != 1 {
		t.Fatalf("counters after warm lookup: %+v, want 2 misses / 1 hit", cc)
	}
}

// TestPlanCacheFailedBuildIsNeverAHit: a failed build is not cached
// and never counts as a hit; the retry is a fresh miss and only the
// lookup after a successful rebuild hits.
func TestPlanCacheFailedBuildIsNeverAHit(t *testing.T) {
	c := workloads.AddN(8).Build()
	pc := NewPlanCache(4)
	boom := errors.New("synthetic build failure")
	if _, err := pc.Get("k", func() (*circuit.Plan, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failing build: got %v, want %v", err, boom)
	}
	if pc.Len() != 0 {
		t.Fatalf("failed build left %d resident entries", pc.Len())
	}
	if _, err := pc.Get("k", func() (*circuit.Plan, error) { return circuit.NewPlan(c) }); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Get("k", func() (*circuit.Plan, error) { return circuit.NewPlan(c) }); err != nil {
		t.Fatal(err)
	}
	if cc := pc.Counters(); cc.Misses != 2 || cc.Hits != 1 {
		t.Fatalf("counters: %+v, want 2 misses (failure + rebuild) / 1 hit", cc)
	}
}
