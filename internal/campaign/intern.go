package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/telemetry"
)

// internTable is the live set of solved policies: one refcounted entry per
// solve fingerprint, shared by every campaign (and every adaptive bank
// factor) over the same problem. An entry holds the engine's artifact
// itself — the artifact is the quoter, so interning copies nothing — and
// it lives exactly as long as some campaign holds it. Nothing in the set
// is evicted: the engine's LRU may drop an artifact, but a policy a live
// campaign holds is never re-solved or copied. The refcounts live here,
// not in the engine, because the manager's Solver is a plain Solve call.
//
// An entry is published only after its solve succeeds, and is immutable
// once shared; concurrent misses on one fingerprint solve once through the
// engine's singleflight, and the caller whose insert wins counts the miss.
// The quote hot path takes no lock here: a campaign reads its entry's
// quoter directly.
type internTable struct {
	solve func(ctx context.Context, spec engine.Spec) (*engine.Result, error)
	batch func(ctx context.Context, spec engine.Spec) (*engine.Result, error)

	mu      sync.Mutex
	entries map[string]*internedQuoter

	hits   atomic.Int64
	misses atomic.Int64
}

func newInternTable(solve, batch func(ctx context.Context, spec engine.Spec) (*engine.Result, error)) *internTable {
	return &internTable{
		solve:   solve,
		batch:   batch,
		entries: make(map[string]*internedQuoter),
	}
}

// internedQuoter is one live-set entry: the engine's solved artifact for
// one fingerprint, which is the campaign's Quoter, plus the number of
// campaigns and bank slots holding it.
type internedQuoter struct {
	Quoter
	key string
	// refs is guarded by the table's mu. At zero the entry leaves the set.
	refs int
}

// acquire returns a reference on the live entry for spec, solving it
// through the engine when no live campaign holds it. The background flag
// routes that solve through the engine's background lane (bank
// pre-solves); interactive callers keep queue priority. warm reports that
// no fresh solver execution was waited on (a live entry, or an engine
// cache hit). Release every acquired entry exactly once.
func (t *internTable) acquire(ctx context.Context, kind string, spec engine.Spec, background bool) (*internedQuoter, bool, error) {
	key, err := spec.Fingerprint()
	if err != nil {
		return nil, false, &engine.InvalidSpecError{Err: err}
	}
	if h := t.ref(key); h != nil {
		return h, true, nil
	}
	solve := t.solve
	if background {
		solve = t.batch
	}
	res, err := solve(ctx, spec)
	if err != nil {
		return nil, false, err
	}
	// The engine recorded its own queue/solve spans through ctx; publishing
	// the entry is this layer's contribution.
	tr := telemetry.FromContext(ctx)
	start := tr.Now()
	defer tr.ObserveSince(telemetry.StageQuoterDecode, start)
	q, ok := res.Value.(Quoter)
	if !ok {
		// Budget strategies are static up-front allocations with no
		// per-state price table, so "the current price" is undefined.
		return nil, false, fmt.Errorf("%w: kind %q has no sequential price table", ErrUnsupportedKind, kind)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.entries[key]; ok {
		// Another caller published while this one solved.
		h.refs++
		t.hits.Add(1)
		return h, res.CacheHit, nil
	}
	h := &internedQuoter{Quoter: q, key: key, refs: 1}
	t.entries[key] = h
	t.misses.Add(1)
	return h, res.CacheHit, nil
}

// ref takes a reference on the live entry for key, or returns nil.
func (t *internTable) ref(key string) *internedQuoter {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.entries[key]
	if !ok {
		return nil
	}
	h.refs++
	t.hits.Add(1)
	return h
}

// release drops one reference; the last release removes the entry from
// the set. nil entries are ignored so error paths can release
// unconditionally.
func (t *internTable) release(h *internedQuoter) {
	if h == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h.refs--
	if h.refs == 0 {
		delete(t.entries, h.key)
	}
}

// releaseAll releases every non-nil entry in bank.
func (t *internTable) releaseAll(bank []*internedQuoter) {
	for _, h := range bank {
		t.release(h)
	}
}

// internStats snapshots the live-set gauge and counters.
type internStats struct {
	interned int64
	hits     int64
	misses   int64
}

func (t *internTable) stats() internStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return internStats{
		interned: int64(len(t.entries)),
		hits:     t.hits.Load(),
		misses:   t.misses.Load(),
	}
}
