package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/telemetry"
)

// internTable is the policy-table memory engine: one refcounted entry per
// solve fingerprint, shared by every campaign (and every adaptive bank
// factor) over the same problem, so a thousand identical campaigns hold one
// quoter view instead of a thousand. A view shares its solved artifact's
// int32 price table, so building one parses and copies nothing. Entries
// tier by resident bytes: when budget > 0 and resident tables exceed it,
// the least-recently-quoted views are dropped and rebuilt from the
// engine's cached artifact (an engine hit; a re-solve if the engine
// evicted it too) the next time they are needed, each rebuild deduped by
// the entry's own singleflight mutex. "Decode" below names that build
// step, as the redecodes counter and the quoter_decode stage do.
//
// Lock order: an entry's decodeMu may be held while calling the engine and
// while taking t.mu; t.mu never waits on decodeMu or the engine. The quote
// hot path takes neither — a warm table is an atomic pointer load plus an
// atomic recency stamp.
type internTable struct {
	solve  func(ctx context.Context, spec engine.Spec) (*engine.Result, error)
	batch  func(ctx context.Context, spec engine.Spec) (*engine.Result, error)
	budget int64

	mu       sync.Mutex
	entries  map[string]*internedQuoter
	resident int64

	// clock is the recency counter: every touch stamps the entry with the
	// next tick, giving eviction an LRU order without hot-path locking.
	clock     atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	redecodes atomic.Int64
}

func newInternTable(budget int64,
	solve, batch func(ctx context.Context, spec engine.Spec) (*engine.Result, error)) *internTable {
	return &internTable{
		solve:   solve,
		batch:   batch,
		budget:  budget,
		entries: make(map[string]*internedQuoter),
	}
}

// quoterMeta is the part of a policy table's shape that must survive
// eviction: state reads (Horizon, Types) and campaign construction
// (InitialCounts) may not force a re-decode.
type quoterMeta struct {
	types   int
	horizon int
	counts  []int
}

// internedQuoter is one intern-table entry: a refcounted handle on the
// (possibly evicted) quoter view for one solve fingerprint. Handles are
// what campaigns hold in their banks; the table itself comes and goes under
// the byte budget.
type internedQuoter struct {
	t    *internTable
	key  string
	kind string
	// spec re-solves the artifact after eviction. The engine's artifact
	// cache makes that a hit in the common case; a cold engine cache re-runs
	// the (deterministic) solver, so the table still comes back
	// bit-identical.
	spec engine.Spec

	// refs counts campaigns/bank slots holding this handle; guarded by
	// t.mu. At zero the entry leaves the table.
	refs int

	// tab is the quoter view, nil while evicted or never solved.
	tab atomic.Pointer[policyTable]
	// lastUse is the recency stamp eviction orders by.
	lastUse atomic.Int64
	// meta is the eviction-surviving shape, set at first decode (or
	// prefilled for lazy bank slots).
	meta atomic.Pointer[quoterMeta]

	// decodeMu serializes solve+decode so a thundering herd on a cold
	// entry costs one decode; decoded (guarded by it) distinguishes the
	// first decode from budget-evicted re-decodes.
	decodeMu sync.Mutex
	decoded  bool

	// fetching dedups async prefetches (Observe fires one when a re-plan
	// lands on a cold bank slot).
	fetching atomic.Bool
}

// acquire returns the (refcounted) handle for spec, creating a cold entry
// on first sight. Release every acquired handle exactly once.
func (t *internTable) acquire(kind string, spec engine.Spec) (*internedQuoter, error) {
	key, err := spec.Fingerprint()
	if err != nil {
		return nil, &engine.InvalidSpecError{Err: err}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.entries[key]; ok {
		h.refs++
		t.hits.Add(1)
		return h, nil
	}
	h := &internedQuoter{t: t, key: key, kind: kind, spec: spec, refs: 1}
	t.entries[key] = h
	t.misses.Add(1)
	return h, nil
}

// release drops one reference; the last release removes the entry (and its
// resident bytes) from the table. nil handles are ignored so error paths
// can release unconditionally.
func (t *internTable) release(h *internedQuoter) {
	if h == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h.refs--
	if h.refs > 0 {
		return
	}
	delete(t.entries, h.key)
	if tab := h.load(); tab != nil {
		t.resident -= tab.residentBytes()
	}
}

// releaseAll releases every non-nil handle in bank.
func (t *internTable) releaseAll(bank []*internedQuoter) {
	for _, h := range bank {
		t.release(h)
	}
}

// prefillMeta copies src's shape onto every handle in bank that has none
// yet. Lazy banks use it so unsolved factor slots can answer Horizon/Types
// without a solve — every factor of one bank shares the base problem's
// shape (scaling λ_t moves prices, not dimensions).
func (t *internTable) prefillMeta(bank []*internedQuoter, src *internedQuoter) {
	meta := src.meta.Load()
	if meta == nil {
		return
	}
	for _, h := range bank {
		h.meta.CompareAndSwap(nil, meta)
	}
}

// stats snapshots the intern gauges and counters.
type internStats struct {
	interned      int64
	residentBytes int64
	hits          int64
	misses        int64
	redecodes     int64
}

func (t *internTable) stats() internStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return internStats{
		interned:      int64(len(t.entries)),
		residentBytes: t.resident,
		hits:          t.hits.Load(),
		misses:        t.misses.Load(),
		redecodes:     t.redecodes.Load(),
	}
}

// install publishes a freshly built view, accounts its bytes, and
// enforces the budget. keep is never evicted in the same pass — installing
// a table only to drop it before its caller quotes would livelock.
func (t *internTable) install(h *internedQuoter, tab policyTable) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries[h.key] != h {
		// Released while decoding: publish nothing. The caller still quotes
		// from its returned table; the bytes are the caller's, not the
		// budget's, and go when it does.
		return
	}
	if old := h.load(); old != nil {
		t.resident -= old.residentBytes()
	}
	h.tab.Store(&tab)
	h.meta.CompareAndSwap(nil, &quoterMeta{
		types:   tab.Types(),
		horizon: tab.Horizon(),
		counts:  tab.InitialCounts(),
	})
	h.lastUse.Store(t.clock.Add(1))
	t.resident += tab.residentBytes()
	t.evictLocked(h)
}

// evictLocked drops least-recently-used views until resident bytes fit
// the budget (keep excluded). Ties break on the fingerprint so the victim
// choice never depends on map iteration order. A single table larger than
// the whole budget stays resident — evicting it would just thrash
// rebuilds. Callers hold t.mu.
func (t *internTable) evictLocked(keep *internedQuoter) {
	for t.budget > 0 && t.resident > t.budget {
		var victim *internedQuoter
		for _, h := range t.entries {
			if h == keep || h.load() == nil {
				continue
			}
			if victim == nil || h.lastUse.Load() < victim.lastUse.Load() ||
				(h.lastUse.Load() == victim.lastUse.Load() && h.key < victim.key) {
				victim = h
			}
		}
		if victim == nil {
			return
		}
		tab := victim.load()
		victim.tab.Store(nil)
		t.resident -= tab.residentBytes()
	}
}

// load returns the quoter view, or nil while evicted/unsolved.
func (h *internedQuoter) load() policyTable {
	if p := h.tab.Load(); p != nil {
		return *p
	}
	return nil
}

// touch stamps the handle's recency. Two atomics — no lock on the quote
// hot path.
func (h *internedQuoter) touch() {
	h.lastUse.Store(h.t.clock.Add(1))
}

// ensure returns the quoter view, solving and building it if evicted or
// never solved. The background flag routes the solve through the engine's
// background lane (bank pre-solves, prefetches); interactive callers keep
// queue priority. The returned cacheHit reports whether no fresh solver
// execution was waited on (warm table, or engine cache hit).
func (h *internedQuoter) ensure(ctx context.Context, background bool) (policyTable, bool, error) {
	if tab := h.load(); tab != nil {
		h.touch()
		return tab, true, nil
	}
	h.decodeMu.Lock()
	defer h.decodeMu.Unlock()
	if tab := h.load(); tab != nil {
		// Singleflight: another caller decoded while this one waited.
		h.touch()
		return tab, true, nil
	}
	solve := h.t.solve
	if background {
		solve = h.t.batch
	}
	res, err := solve(ctx, h.spec)
	if err != nil {
		return nil, false, err
	}
	// The engine recorded its own queue/solve spans through ctx; building
	// the view is this layer's contribution.
	tr := telemetry.FromContext(ctx)
	decodeStart := tr.Now()
	tab, err := newTable(h.kind, res.Value)
	tr.ObserveSince(telemetry.StageQuoterDecode, decodeStart)
	if err != nil {
		return nil, false, err
	}
	if h.decoded {
		h.t.redecodes.Add(1)
	} else {
		h.decoded = true
	}
	h.t.install(h, tab)
	return tab, res.CacheHit, nil
}

// prefetch solves the table on the background lane, deduping concurrent
// prefetches; errors are dropped — the quote path re-ensures with a real
// error surface if the table is still cold when needed.
func (h *internedQuoter) prefetch() {
	if !h.fetching.CompareAndSwap(false, true) {
		return
	}
	defer h.fetching.Store(false)
	_, _, _ = h.ensure(context.Background(), true)
}

// metaOrNil returns the eviction-surviving shape (nil before first decode
// on a handle with no prefilled meta — campaigns never reach that state,
// Create and rebuild always ensure the starting table first).
func (h *internedQuoter) metaOrNil() *quoterMeta {
	return h.meta.Load()
}

// Horizon reports the policy's interval count without forcing a decode.
func (h *internedQuoter) Horizon() int {
	if m := h.metaOrNil(); m != nil {
		return m.horizon
	}
	return 0
}

// Types reports the priced task-type count without forcing a decode.
func (h *internedQuoter) Types() int {
	if m := h.metaOrNil(); m != nil {
		return m.types
	}
	return 0
}

// InitialCounts returns a fresh copy of the starting remaining-task vector.
func (h *internedQuoter) InitialCounts() []int {
	if m := h.metaOrNil(); m != nil {
		return append([]int(nil), m.counts...)
	}
	return nil
}

// String identifies the handle in errors.
func (h *internedQuoter) String() string {
	return fmt.Sprintf("interned %s policy %s", h.kind, h.key)
}
