package bench

import (
	"context"
	"sync"
	"testing"
	"time"

	"crowdpricing/internal/engine"
)

// stubSpec satisfies engine.Spec for requests a nopTarget never solves.
type stubSpec struct{}

func (stubSpec) Kind() string                          { return "stub" }
func (stubSpec) Validate() error                       { return nil }
func (stubSpec) Fingerprint() (string, error)          { return "stub", nil }
func (stubSpec) Solve(context.Context) ([]byte, error) { return nil, nil }
func (stubSpec) SolveArtifact(context.Context) (engine.Artifact, error) {
	return engine.RawJSON(nil), nil
}

// fakeClock advances virtual time instead of sleeping: After(d) moves the
// clock forward by d and fires immediately, so an open-loop schedule
// spanning minutes of virtual time executes in microseconds.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.t = c.t.Add(d)
	now := c.t
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- now
	return ch
}

// nopTarget records how many requests it served and always succeeds.
type nopTarget struct {
	served sync.Map
}

func (t *nopTarget) Do(ctx context.Context, req *Request) (bool, error) {
	t.served.Store(req.At, true)
	return false, nil
}

// TestRunWithFakeClock proves the runner is fully clock-injected: a
// schedule whose arrivals span minutes of virtual time completes without
// real sleeps, fires every request, and applies the warmup cutoff to the
// virtual timeline.
func TestRunWithFakeClock(t *testing.T) {
	sched := &Schedule{
		Hash:   "fake-clock-test",
		Config: Config{Warmup: time.Minute},
	}
	const n = 50
	for i := 0; i < n; i++ {
		sched.Requests = append(sched.Requests, Request{
			At:   time.Duration(i) * 4 * time.Second, // 0s .. 196s: minutes of virtual time
			Kind: Kinds[0],
			Spec: stubSpec{},
		})
	}
	target := &nopTarget{}
	begin := time.Now()
	res, err := Run(context.Background(), sched, RunOptions{
		Target: target,
		Clock:  &fakeClock{t: time.Unix(0, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if real := time.Since(begin); real > 30*time.Second {
		t.Fatalf("fake-clock run took %v of real time; the clock is not fully injected", real)
	}
	fired := 0
	target.served.Range(func(_, _ any) bool { fired++; return true })
	if fired != n {
		t.Fatalf("target served %d requests, want %d", fired, n)
	}
	warmupReqs := int64(15) // arrivals at 0,4,...,56s fall inside the 60s warmup
	if res.Warmed != warmupReqs {
		t.Errorf("Warmed = %d, want %d", res.Warmed, warmupReqs)
	}
	if got := res.Overall.Requests; got != int64(n)-warmupReqs {
		t.Errorf("measured requests = %d, want %d", got, int64(n)-warmupReqs)
	}
	if res.Overall.Errors != 0 || res.Overall.Rejected != 0 {
		t.Errorf("errors=%d rejected=%d, want 0/0", res.Overall.Errors, res.Overall.Rejected)
	}
}
