package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// orderSpec records its solve order into a shared log.
type orderSpec struct {
	fakeSpec
	mu  *sync.Mutex
	log *[]string
}

func (s *orderSpec) SolveArtifact(ctx context.Context) (Artifact, error) {
	s.mu.Lock()
	*s.log = append(*s.log, s.id)
	s.mu.Unlock()
	return s.fakeSpec.SolveArtifact(ctx)
}

// TestSolveBatchSharesCacheAndFlight: the background lane is the same
// engine — a batch solve warms the cache for interactive callers, and an
// in-flight interactive solve dedups a concurrent batch request for the
// identical problem (one solver execution total).
func TestSolveBatchSharesCacheAndFlight(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	var solves atomic.Int64

	res, err := e.SolveBatch(context.Background(), &fakeSpec{kind: "a", id: "x", solves: &solves})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("first batch solve reported a cache hit")
	}
	warm, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "x", solves: &solves})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit || solves.Load() != 1 {
		t.Errorf("interactive solve after a batch solve: hit=%v solves=%d, want a warm hit off 1 solve",
			warm.CacheHit, solves.Load())
	}

	// Cross-lane singleflight: block an interactive solve, then submit the
	// identical spec on the batch lane; both must resolve from one execution.
	block := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), &fakeSpec{kind: "a", id: "y", solves: &solves, block: block})
		first <- err
	}()
	waitFor(t, func() bool { return e.Metrics().InFlight == 1 })
	second := make(chan error, 1)
	go func() {
		_, err := e.SolveBatch(context.Background(), &fakeSpec{kind: "a", id: "y", solves: &solves, block: block})
		second <- err
	}()
	waitFor(t, func() bool { return e.Metrics().FlightShared == 1 })
	close(block)
	for i, ch := range []chan error{first, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("caller %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("caller %d hung", i)
		}
	}
	if n := solves.Load(); n != 2 {
		t.Errorf("%d solver executions, want 2 (x once, y once)", n)
	}
}

// TestInteractiveLaneHasPriority: with the single worker pinned on a
// background solve and both lanes holding queued work, the freed worker
// must drain the interactive call before the remaining background ones.
func TestInteractiveLaneHasPriority(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, QueueDepth: 16})
	var mu sync.Mutex
	var order []string
	spec := func(id string, block chan struct{}) *orderSpec {
		return &orderSpec{fakeSpec: fakeSpec{kind: "a", id: id, block: block}, mu: &mu, log: &order}
	}

	gate := make(chan struct{})
	var wg sync.WaitGroup
	solve := func(s *orderSpec, lane func(context.Context, Spec) (*Result, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := lane(context.Background(), s); err != nil {
				t.Error(err)
			}
		}()
	}
	solve(spec("pin", gate), e.SolveBatch)
	waitFor(t, func() bool { return e.Metrics().InFlight == 1 })
	for _, id := range []string{"bg1", "bg2", "bg3"} {
		solve(spec(id, nil), e.SolveBatch)
	}
	waitFor(t, func() bool { return e.Metrics().BatchQueueDepth == 3 })
	solve(spec("urgent", nil), e.Solve)
	waitFor(t, func() bool { return e.Metrics().QueueDepth == 1 })
	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 || order[0] != "pin" || order[1] != "urgent" {
		t.Fatalf("solve order %v, want pin first and urgent ahead of every queued background solve", order)
	}
}
