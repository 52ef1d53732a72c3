package campaign

import (
	"context"
	"sort"
	"testing"
	"time"

	"crowdpricing/internal/kinds"
	"crowdpricing/internal/telemetry"
)

// paperCampaign creates one paper-scale deadline campaign (N=200, 72
// intervals — the Section 5 experimental scale) and returns its ID.
func paperCampaign(tb testing.TB, m *Manager, adaptive *AdaptiveOptions) string {
	tb.Helper()
	st, err := m.Create(context.Background(), kinds.KindDeadline,
		sampleRequest(tb, kinds.KindDeadline, 1, "paper"), adaptive)
	if err != nil {
		tb.Fatal(err)
	}
	return st.ID
}

// BenchmarkQuotePaperScale is the acceptance bar for the hot path: an O(1)
// table lookup under the campaign mutex, target ≤ 50µs at paper scale
// (within ~10× of the engine's warm cache hit). Measured on the dev
// container: ~0.2µs/op.
func BenchmarkQuotePaperScale(b *testing.B) {
	m := newTestManager(b, Options{})
	id := paperCampaign(b, m, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Quote(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuoteAdaptivePaperScale quotes from a mid-flight adaptive
// campaign: the bank indirection must not change the hot path's complexity.
func BenchmarkQuoteAdaptivePaperScale(b *testing.B) {
	m := newTestManager(b, Options{})
	id := paperCampaign(b, m, &AdaptiveOptions{})
	for i := 0; i < 12; i++ {
		if _, err := m.Observe(id, float64(100+20*i), []int{1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Quote(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObservePaperScale covers the other hot-path half: the O(window)
// state update (window ≤ a few intervals, no solver work ever).
func BenchmarkObservePaperScale(b *testing.B) {
	m := newTestManager(b, Options{})
	id := paperCampaign(b, m, &AdaptiveOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Observe(id, 100, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQuoteHotPathBound is the regression fence behind the benchmark: the
// median of 1000 paper-scale quotes must stay far under a millisecond —
// huge headroom over the observed ~0.2µs, so only a complexity-class
// regression (an O(N·T) scan creeping into the lookup) can trip it, not CI
// scheduler noise.
func TestQuoteHotPathBound(t *testing.T) {
	m := newTestManager(t, Options{})
	id := paperCampaign(t, m, nil)
	const samples = 1000
	lat := make([]time.Duration, samples)
	for i := range lat {
		begin := time.Now()
		if _, err := m.Quote(id); err != nil {
			t.Fatal(err)
		}
		lat[i] = time.Since(begin)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	median := lat[samples/2]
	t.Logf("paper-scale quote latency: p50 %v, p99 %v", median, lat[samples*99/100])
	if median > time.Millisecond {
		t.Fatalf("median quote latency %v; the O(1) hot path has regressed", median)
	}
}

// TestQuoteTracedAllocationBound fences the tracing tax on the quote hot
// path: a live trace may add at most one heap allocation per quote over
// the untraced baseline (span recording is two atomics and a clock read;
// the budget exists only as slack for compiler-version drift).
func TestQuoteTracedAllocationBound(t *testing.T) {
	m := newTestManager(t, Options{})
	id := paperCampaign(t, m, nil)
	tracer := telemetry.NewTracer(4, 1)
	tr := tracer.Start("/v1/campaigns/{id}/price")
	defer tracer.Finish(tr, 200)

	baseline := testing.AllocsPerRun(200, func() {
		if _, err := m.Quote(id); err != nil {
			t.Fatal(err)
		}
	})
	traced := testing.AllocsPerRun(200, func() {
		if _, err := m.QuoteTraced(tr, id); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("quote allocations: untraced %.1f, traced %.1f", baseline, traced)
	if traced > baseline+1 {
		t.Fatalf("tracing adds %.1f allocations per quote (untraced %.1f, traced %.1f); budget is 1",
			traced-baseline, baseline, traced)
	}
}

// createCachedPaper creates one paper-scale deadline campaign over a
// policy the engine already caches and finishes it again. Finishing drops
// the intern entry's last reference, so every create is an intern miss
// that builds its quoter view from the engine's cached artifact — the
// daemon starting a campaign over a policy it solved before. It returns
// the create's latency.
func createCachedPaper(tb testing.TB, m *Manager, req []byte) time.Duration {
	tb.Helper()
	begin := time.Now()
	st, err := m.Create(context.Background(), kinds.KindDeadline, req, nil)
	took := time.Since(begin)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Finish(st.ID); err != nil {
		tb.Fatal(err)
	}
	return took
}

// BenchmarkCreateCachedPaperScale times a paper-scale create over an
// engine-cached policy with an intern miss (see createCachedPaper); the
// finish is outside the timer.
func BenchmarkCreateCachedPaperScale(b *testing.B) {
	m, _ := newInternManager(b, Options{})
	req := sampleRequest(b, kinds.KindDeadline, 1, "paper")
	createCachedPaper(b, m, req) // the one solve
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += createCachedPaper(b, m, req)
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "create-ns/op")
}

// TestCreateCachedPolicyBound is the fence behind the benchmark: starting
// a campaign over a solved paper-scale policy must not pay for the policy
// again, so the median create stays under a millisecond (parsing the
// 312 KB wire form alone takes ~5 ms). Every create must be an engine hit
// and an intern miss, or the fence measures the wrong path. Under the race
// detector the bound is ten times looser.
func TestCreateCachedPolicyBound(t *testing.T) {
	m, eng := newInternManager(t, Options{})
	req := sampleRequest(t, kinds.KindDeadline, 1, "paper")
	createCachedPaper(t, m, req)
	const samples = 200
	lat := make([]time.Duration, samples)
	for i := range lat {
		lat[i] = createCachedPaper(t, m, req)
	}
	if s := eng.Metrics().Solves; s != 1 {
		t.Fatalf("engine ran %d solves, want 1 (every create after the first is a cache hit)", s)
	}
	if is := m.intern.stats(); is.misses != samples+1 || is.hits != 0 {
		t.Fatalf("intern hits/misses %d/%d, want 0/%d", is.hits, is.misses, samples+1)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	median := lat[samples/2]
	t.Logf("paper-scale cached create: p50 %v, p90 %v", median, lat[samples*9/10])
	bound := time.Millisecond
	if raceEnabled {
		bound *= 10
	}
	if median > bound {
		t.Fatalf("median cached create %v, bound %v: a create is re-processing the solved policy", median, bound)
	}
}
