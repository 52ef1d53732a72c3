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
		tab := c.active().load()
		if tab == nil {
			c.mu.Unlock()
			t.Fatal("table not resident in a warm-quote fence")
		}
		c.active().touch()
		_ = c.quoteLocked(tab)
		c.mu.Unlock()
	})
}

// TestWarmQuoteAllocs is the satellite fence: a warm quote — deadline and
// multi, the single- and multi-type table layouts — performs zero heap
// allocations.
func TestWarmQuoteAllocs(t *testing.T) {
	m, _ := newInternManager(t, Options{})

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
	if is := m.intern.stats(); is.interned != 0 || is.residentBytes != 0 {
		t.Errorf("after the last finish: %d interned, %d resident bytes, want 0/0", is.interned, is.residentBytes)
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

// TestEvictionRedecodeRoundTrip: under a budget too small for two tables,
// alternating quotes across two campaigns must keep evicting and lazily
// re-decoding — and every quote must stay bit-identical to an unbudgeted
// manager's.
func TestEvictionRedecodeRoundTrip(t *testing.T) {
	free, _ := newInternManager(t, Options{})
	tight, _ := newInternManager(t, Options{QuoterMemoryBudget: 1})

	reqA := sampleRequest(t, kinds.KindDeadline, 21, "small")
	reqB := sampleRequest(t, kinds.KindDeadline, 22, "small")
	var freeIDs, tightIDs []string
	for _, req := range []json.RawMessage{reqA, reqB} {
		stF, err := free.Create(context.Background(), kinds.KindDeadline, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		freeIDs = append(freeIDs, stF.ID)
		stT, err := tight.Create(context.Background(), kinds.KindDeadline, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		tightIDs = append(tightIDs, stT.ID)
	}

	// A one-byte budget keeps at most the single most-recent table resident
	// (a lone over-budget table is never evicted), so alternating campaigns
	// forces an eviction + re-decode per switch.
	for round := 0; round < 4; round++ {
		for i := range tightIDs {
			qT, err := tight.Quote(tightIDs[i])
			if err != nil {
				t.Fatal(err)
			}
			qF, err := free.Quote(freeIDs[i])
			if err != nil {
				t.Fatal(err)
			}
			if qT.Price != qF.Price {
				t.Fatalf("round %d campaign %d: budgeted quote %d, unbudgeted %d", round, i, qT.Price, qF.Price)
			}
			if _, err := tight.Observe(tightIDs[i], 10, []int{1}); err != nil {
				t.Fatal(err)
			}
			if _, err := free.Observe(freeIDs[i], 10, []int{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	is := tight.intern.stats()
	if is.redecodes == 0 {
		t.Error("no re-decodes under a one-byte budget; eviction never happened")
	}
	if fis := free.intern.stats(); fis.redecodes != 0 {
		t.Errorf("unbudgeted manager re-decoded %d times", fis.redecodes)
	}
}

// TestInternedBankMemoryBound is the acceptance fence: 1,000 identical
// adaptive campaigns must hold resident quoter bytes within 2× of ONE
// campaign's footprint — O(distinct problems), not O(campaigns).
func TestInternedBankMemoryBound(t *testing.T) {
	m, _ := newInternManager(t, Options{})
	req := sampleRequest(t, kinds.KindDeadline, 4, "small")
	adaptive := &AdaptiveOptions{WindowIntervals: 2}

	if _, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive); err != nil {
		t.Fatal(err)
	}
	one := m.intern.stats().residentBytes
	if one <= 0 {
		t.Fatalf("one campaign holds %d resident bytes", one)
	}
	for i := 1; i < 1000; i++ {
		if _, err := m.Create(context.Background(), kinds.KindDeadline, req, adaptive); err != nil {
			t.Fatal(err)
		}
	}
	all := m.intern.stats().residentBytes
	t.Logf("resident quoter bytes: 1 campaign %d, 1000 campaigns %d", one, all)
	if all > 2*one {
		t.Fatalf("1000 identical adaptive campaigns hold %d resident bytes, over 2× one campaign's %d", all, one)
	}
}

// TestLazyBankSolvesOnDemand: under Options.LazyBank a create solves ONE
// factor; the estimate's drift to a neighbor triggers that factor's solve
// (async prefetch or quote-path ensure), and the price matches an eagerly
// built bank's bit for bit.
func TestLazyBankSolvesOnDemand(t *testing.T) {
	lazy, lazyEng := newInternManager(t, Options{LazyBank: true})
	eager, _ := newInternManager(t, Options{})
	req := sampleRequest(t, kinds.KindDeadline, 11, "small")
	adaptive := &AdaptiveOptions{WindowIntervals: 3}

	stL, err := lazy.Create(context.Background(), kinds.KindDeadline, req, adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if solves := lazyEng.Metrics().Solves; solves != 1 {
		t.Errorf("lazy create cost %d solves, want 1 (the starting factor)", solves)
	}
	stE, err := eager.Create(context.Background(), kinds.KindDeadline, req, adaptive)
	if err != nil {
		t.Fatal(err)
	}

	// Unsolved slots still answer shape queries from the prefilled meta.
	if qL, qE := quoteAll(t, lazy, []string{stL.ID})[0], quoteAll(t, eager, []string{stE.ID})[0]; qL.Price != qE.Price {
		t.Fatalf("pre-drift lazy quote %d, eager %d", qL.Price, qE.Price)
	}

	// Drive the estimate off the starting factor; the quote path must land
	// on the neighbor's freshly solved table either via the Observe-time
	// prefetch or its own ensure.
	driftObserve(t, lazy, stL.ID, req, 3)
	driftObserve(t, eager, stE.ID, req, 3)
	qL, err := lazy.Quote(stL.ID)
	if err != nil {
		t.Fatal(err)
	}
	qE, err := eager.Quote(stE.ID)
	if err != nil {
		t.Fatal(err)
	}
	if qL.ActiveFactor == 1.0 {
		t.Fatal("drift did not move the lazy campaign off the starting factor")
	}
	if qL.Price != qE.Price || qL.ActiveFactor != qE.ActiveFactor {
		t.Fatalf("post-drift lazy quote (%d @ factor %v), eager (%d @ factor %v)",
			qL.Price, qL.ActiveFactor, qE.Price, qE.ActiveFactor)
	}
	// Lazily solved factors stay a strict subset of the full bank.
	if lazySolves, grid := lazyEng.Metrics().Solves, int64(len(defaultFactors())); lazySolves >= grid {
		t.Errorf("lazy bank solved %d factors, want fewer than the full %d-factor grid", lazySolves, grid)
	}
}
