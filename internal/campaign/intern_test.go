package campaign

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

// newInternManager builds a Manager over its own engine and returns both,
// so tests can assert on solver executions as well as intern state.
func newInternManager(t testing.TB, opts Options) (*Manager, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	if opts.now == nil {
		opts.now = func() time.Time { return time.Unix(1_700_000_000, 0) }
	}
	m := NewManager(eng, nil, opts)
	t.Cleanup(m.Close)
	return m, eng
}

// warmQuoteAllocs measures heap allocations of the warm quote computation —
// the table lookup into the campaign's reusable price buffer, everything
// under the campaign mutex short of the response envelope (which copies
// state out by design).
func warmQuoteAllocs(t *testing.T, m *Manager, id string) float64 {
	t.Helper()
	c, err := m.get(id)
	if err != nil {
		t.Fatal(err)
	}
	// One warm-up quote so quoteBuf reaches its final capacity.
	if _, err := m.Quote(id); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		c.mu.Lock()
		_ = c.quoteLocked()
		c.mu.Unlock()
	})
}

// TestWarmQuoteAllocs is the satellite fence: a warm quote — deadline,
// multi and tradeoff, the time-indexed, multi-type and stationary table
// layouts, plus an adaptive campaign after a re-plan — performs zero heap
// allocations, and quoting never reaches the solver.
func TestWarmQuoteAllocs(t *testing.T) {
	m, eng := newInternManager(t, Options{})

	deadline, err := m.Create(context.Background(), kinds.KindDeadline,
		sampleRequest(t, kinds.KindDeadline, 3, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := warmQuoteAllocs(t, m, deadline.ID); allocs != 0 {
		t.Errorf("warm deadline quote allocates %.1f objects/op, want 0", allocs)
	}

	multi, err := m.Create(context.Background(), kinds.KindMulti,
		sampleRequest(t, kinds.KindMulti, 3, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := warmQuoteAllocs(t, m, multi.ID); allocs != 0 {
		t.Errorf("warm multi quote allocates %.1f objects/op, want 0", allocs)
	}

	tradeoff, err := m.Create(context.Background(), kinds.KindTradeoff,
		sampleRequest(t, kinds.KindTradeoff, 3, "small"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := warmQuoteAllocs(t, m, tradeoff.ID); allocs != 0 {
		t.Errorf("warm tradeoff quote allocates %.1f objects/op, want 0", allocs)
	}

	req := sampleRequest(t, kinds.KindDeadline, 11, "small")
	adaptive, err := m.Create(context.Background(), kinds.KindDeadline, req, &AdaptiveOptions{WindowIntervals: 3})
	if err != nil {
		t.Fatal(err)
	}
	driftObserve(t, m, adaptive.ID, req, 3)
	if st, err := m.State(adaptive.ID); err != nil {
		t.Fatal(err)
	} else if st.Replans == 0 || st.ActiveFactor == 1 {
		t.Fatalf("drift did not re-plan the adaptive campaign (replans %d, factor %v)", st.Replans, st.ActiveFactor)
	}
	if allocs := warmQuoteAllocs(t, m, adaptive.ID); allocs != 0 {
		t.Errorf("warm adaptive quote after a re-plan allocates %.1f objects/op, want 0", allocs)
	}

	solves := eng.Metrics().Solves
	ids := []string{deadline.ID, multi.ID, tradeoff.ID, adaptive.ID}
	for i := 0; i < 1000; i++ {
		if _, err := m.Quote(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	if after := eng.Metrics().Solves; after != solves {
		t.Errorf("1,000 quotes after create ran %d solver executions, want 0", after-solves)
	}
}

// TestHeldPolicySurvivesEngineEviction pins why the live set exists: a
// policy a live campaign holds is neither re-solved nor copied after the
// engine's LRU evicts it. With a one-artifact engine cache, solving B
// evicts A; a second campaign on A must land on the first one's artifact.
func TestHeldPolicySurvivesEngineEviction(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2, CacheSize: 1})
	t.Cleanup(eng.Close)
	m := NewManager(eng, nil, Options{})
	t.Cleanup(m.Close)

	reqA := sampleRequest(t, kinds.KindDeadline, 31, "small")
	first, err := m.Create(context.Background(), kinds.KindDeadline, reqA, nil)
	if err != nil {
		t.Fatal(err)
	}
	specB, err := m.decodeSpec(kinds.KindDeadline, sampleRequest(t, kinds.KindDeadline, 32, "small"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Solve(context.Background(), specB); err != nil {
		t.Fatal(err)
	}
	second, err := m.Create(context.Background(), kinds.KindDeadline, reqA, nil)
	if err != nil {
		t.Fatal(err)
	}

	if solves := eng.Metrics().Solves; solves != 2 {
		t.Errorf("engine ran %d solves, want 2 (A once, B once)", solves)
	}
	if is := m.intern.stats(); is.interned != 1 {
		t.Errorf("%d interned entries, want 1 (A)", is.interned)
	}
	c1, err := m.get(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.get(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c1.active().Quoter != c2.active().Quoter {
		t.Error("the two campaigns on A hold different artifacts")
	}
}

// TestConcurrentIdenticalAdaptiveCreatesShareBank: N concurrent identical
// adaptive creates must converge on ONE interned bank — one solver
// execution per factor, not N per factor — and every campaign's bank slots
// must be the same handles. Run under -race this also exercises the intern
// table's concurrency.
func TestConcurrentIdenticalAdaptiveCreatesShareBank(t *testing.T) {
	m, eng := newInternManager(t, Options{})
	req := sampleRequest(t, kinds.KindDeadline, 5, "small")
	adaptive := &AdaptiveOptions{WindowIntervals: 2}
	factors := len(defaultFactors())

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if solves := eng.Metrics().Solves; solves != int64(factors) {
		t.Errorf("%d campaigns cost %d solver executions, want one per factor (%d)", n, solves, factors)
	}
	is := m.intern.stats()
	if is.interned != int64(factors) {
		t.Errorf("%d distinct tables interned, want %d (one per factor)", is.interned, factors)
	}
	// Every campaign's bank must be the same slice of handles.
	first, err := m.get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		c, err := m.get(id)
		if err != nil {
			t.Fatal(err)
		}
		for slot, h := range c.bank {
			if h != first.bank[slot] {
				t.Fatalf("campaign %s bank slot %d holds a different handle than %s", id, slot, ids[0])
			}
		}
	}
	// Finishing all but one keeps the shared bank; finishing the last frees it.
	for _, id := range ids[:n-1] {
		if _, err := m.Finish(id); err != nil {
			t.Fatal(err)
		}
	}
	if is := m.intern.stats(); is.interned != int64(factors) {
		t.Errorf("surviving campaign lost its bank: %d interned, want %d", is.interned, factors)
	}
	if _, err := m.Finish(ids[n-1]); err != nil {
		t.Fatal(err)
	}
	if is := m.intern.stats(); is.interned != 0 {
		t.Errorf("after the last finish: %d interned, want 0", is.interned)
	}
}

// quoteAll returns one quote per campaign ID, in order.
func quoteAll(t *testing.T, m *Manager, ids []string) []*Quote {
	t.Helper()
	out := make([]*Quote, len(ids))
	for i, id := range ids {
		q, err := m.Quote(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

// driftObserve drives interval observations with arrivals far above the
// trained profile so adaptive campaigns re-plan onto a neighboring factor.
func driftObserve(t *testing.T, m *Manager, id string, req json.RawMessage, intervals int) {
	t.Helper()
	var wire kinds.DeadlineRequest
	if err := json.Unmarshal(req, &wire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < intervals; i++ {
		if _, err := m.Observe(id, 2*wire.Lambdas[i%len(wire.Lambdas)], []int{1}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALReplayLandsOnInternedTables: campaigns rebuilt from the event log
// must dedup onto interned tables exactly like live creates — K identical
// adaptive campaigns replay to one bank, whether a campaign's base is a
// compaction snapshot entry or its create event — and quote bit-identical
// prices.
func TestWALReplayLandsOnInternedTables(t *testing.T) {
	m, eng := newInternManager(t, Options{})
	mem := wal.NewMemFS()
	wlog, err := m.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(wlog)

	req := sampleRequest(t, kinds.KindDeadline, 9, "small")
	adaptive := &AdaptiveOptions{WindowIntervals: 2}
	const k = 3
	ids := make([]string, k)
	for i := range ids {
		if i == k-1 {
			// The earlier campaigns replay from a snapshot entry, the last
			// from its create event.
			if err := wlog.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		st, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	driftObserve(t, m, ids[0], req, 3)
	before := quoteAll(t, m, ids)
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(eng, nil, Options{now: m.opts.now})
	t.Cleanup(m2.Close)
	wlog2, err := m2.OpenWAL("wal", wal.Options{FS: mem, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wlog2.Close() })
	stats, err := m2.ReplayWAL(context.Background(), wlog2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Campaigns != k || stats.Snapshots != 1 {
		t.Fatalf("replayed %d campaigns across %d snapshot records, want %d across 1",
			stats.Campaigns, stats.Snapshots, k)
	}
	after := quoteAll(t, m2, ids)
	for i := range before {
		if before[i].Price != after[i].Price || before[i].Interval != after[i].Interval {
			t.Errorf("campaign %s: quote (%d @ %d) before replay, (%d @ %d) after",
				ids[i], before[i].Price, before[i].Interval, after[i].Price, after[i].Interval)
		}
	}
	if is := m2.intern.stats(); is.interned != int64(len(defaultFactors())) {
		t.Errorf("replay interned %d quoters for %d identical banks, want %d",
			is.interned, k, len(defaultFactors()))
	}
}

// TestInternedBankMemoryBound is the acceptance fence: 1,000 identical
// adaptive campaigns hold one interned entry per bank factor —
// O(distinct problems), not O(campaigns) — and every bank slot is the
// engine's own artifact, not a copy of it.
func TestInternedBankMemoryBound(t *testing.T) {
	m, eng := newInternManager(t, Options{})
	req := sampleRequest(t, kinds.KindDeadline, 4, "small")
	adaptive := &AdaptiveOptions{WindowIntervals: 2}
	factors := defaultFactors()

	ids := make([]string, 1000)
	for i := range ids {
		st, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	if is := m.intern.stats(); is.interned != int64(len(factors)) {
		t.Fatalf("1000 identical adaptive campaigns intern %d entries, want %d (one per factor)",
			is.interned, len(factors))
	}

	spec, err := m.decodeSpec(kinds.KindDeadline, req)
	if err != nil {
		t.Fatal(err)
	}
	base := spec.(*kinds.DeadlineRequest)
	artifacts := make([]any, len(factors))
	for i, f := range factors {
		scaled := *base
		scaled.Lambdas = make([]float64, len(base.Lambdas))
		for k, l := range base.Lambdas {
			scaled.Lambdas[k] = l * f
		}
		res, err := eng.Solve(context.Background(), &scaled)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatalf("factor %g: engine re-solved a bank policy", f)
		}
		artifacts[i] = res.Value
	}
	for _, id := range ids {
		c, err := m.get(id)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range c.bank {
			if h.Quoter != artifacts[i] {
				t.Fatalf("campaign %s bank slot %d is not the engine's artifact for factor %g", id, i, factors[i])
			}
		}
	}
}
