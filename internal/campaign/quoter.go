package campaign

import (
	"fmt"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
)

// Quoter is the hot-path view of a solved policy: an O(1) table lookup from
// campaign state (remaining task counts, elapsed interval) to the price(s)
// the policy dictates right now. Quoters are immutable once built — the
// campaign hot path reads them without synchronization beyond the campaign's
// own mutex.
type Quoter interface {
	// Types is the number of task types the policy prices (1 for every kind
	// except multi).
	Types() int
	// Horizon is the number of DP intervals, or 0 for a stationary policy
	// with no finite horizon (tradeoff).
	Horizon() int
	// InitialCounts is the remaining-task vector a fresh campaign starts at.
	InitialCounts() []int
	// AppendQuote appends the policy's price vector (one price per type) for
	// the given remaining counts at interval t to dst and returns it.
	// Out-of-range states clamp, as in core's PriceAt accessors, so a
	// campaign past its horizon or below zero remaining still quotes
	// deterministically. Reusing dst across quotes keeps the warm path
	// allocation-free.
	AppendQuote(dst []int, remaining []int, t int) []int
}

// policyTable is a quoter view over a solved artifact's compact price
// table: a Quoter that also knows its resident footprint, which is what
// the intern layer's byte budget tiers on.
type policyTable interface {
	Quoter
	residentBytes() int64
}

// SupportsKind reports whether kind has a campaign runtime — a sequential
// per-state price table to quote from. Budget strategies are static
// up-front allocations, so they (and unknown kinds) report false. The
// bench harness uses this to validate campaign-scenario mixes.
func SupportsKind(kind string) bool {
	switch kind {
	case kinds.KindDeadline, kinds.KindTradeoff, kinds.KindMulti:
		return true
	}
	return false
}

// newTable wraps the engine's solved artifact in its quoter view. The view
// shares the artifact's int32 price slice — building it copies nothing and
// parses nothing; the artifact already checked its dimensions and cells.
// Budget is rejected: a budget strategy is a static up-front allocation
// with no per-state price table, so "the current price" is undefined for
// it.
func newTable(kind string, artifact engine.Artifact) (policyTable, error) {
	switch a := artifact.(type) {
	case *kinds.DeadlineArtifact:
		return &deadlineTable{n: a.Problem.N, intervals: a.Problem.Intervals,
			minPrice: int32(a.Problem.MinPrice), prices: a.Prices}, nil
	case *kinds.TradeoffArtifact:
		return &tradeoffTable{prices: a.Prices}, nil
	case *kinds.MultiArtifact:
		return &multiTable{counts: a.Counts, strides: a.Strides, intervals: a.Intervals,
			states: a.States, prices: a.Prices}, nil
	}
	if SupportsKind(kind) {
		return nil, fmt.Errorf("campaign: %s solve returned a %T artifact, not its price table", kind, artifact)
	}
	return nil, fmt.Errorf("campaign: %w: kind %q has no sequential price table", ErrUnsupportedKind, kind)
}

// deadlineTable serves the Section 3 finite-horizon policy: prices[t*(n+1)+k]
// is the price for k remaining at interval t, matching
// core.DeadlinePolicy.PriceAt bit for bit (including its clamps and the
// n<=0 → MinPrice idle price).
type deadlineTable struct {
	n         int
	intervals int
	minPrice  int32
	prices    []int32
}

func (q *deadlineTable) Types() int           { return 1 }
func (q *deadlineTable) Horizon() int         { return q.intervals }
func (q *deadlineTable) InitialCounts() []int { return []int{q.n} }
func (q *deadlineTable) residentBytes() int64 { return int64(len(q.prices)) * 4 }
func (q *deadlineTable) AppendQuote(dst []int, remaining []int, t int) []int {
	n := remaining[0]
	if n <= 0 {
		return append(dst, int(q.minPrice))
	}
	if n > q.n {
		n = q.n
	}
	if t < 0 {
		t = 0
	}
	if t >= q.intervals {
		t = q.intervals - 1
	}
	return append(dst, int(q.prices[t*(q.n+1)+n]))
}

// tradeoffTable serves the Section 6 stationary policy: the price depends
// only on the remaining count, never on time.
type tradeoffTable struct {
	prices []int32
}

func (q *tradeoffTable) Types() int           { return 1 }
func (q *tradeoffTable) Horizon() int         { return 0 }
func (q *tradeoffTable) InitialCounts() []int { return []int{len(q.prices) - 1} }
func (q *tradeoffTable) residentBytes() int64 { return int64(len(q.prices)) * 4 }
func (q *tradeoffTable) AppendQuote(dst []int, remaining []int, t int) []int {
	n := remaining[0]
	if n < 0 {
		n = 0
	}
	if n >= len(q.prices) {
		n = len(q.prices) - 1
	}
	return append(dst, int(q.prices[n]))
}

// multiTable serves the general-k joint policy: states are count vectors,
// flattened row-major with the last type's count varying fastest (the
// MultiSchedule wire layout), and each state's k per-type prices stored
// contiguously at prices[(t*states+idx)*k:]. counts and strides are the
// artifact's own slices, read-only like the prices.
type multiTable struct {
	counts    []int
	strides   []int
	intervals int
	states    int
	prices    []int32
}

func (q *multiTable) Types() int   { return len(q.counts) }
func (q *multiTable) Horizon() int { return q.intervals }
func (q *multiTable) InitialCounts() []int {
	return append([]int(nil), q.counts...)
}
func (q *multiTable) residentBytes() int64 {
	return int64(len(q.prices))*4 + int64(len(q.counts)+len(q.strides))*8
}
func (q *multiTable) AppendQuote(dst []int, remaining []int, t int) []int {
	if t < 0 {
		t = 0
	}
	if t >= q.intervals {
		t = q.intervals - 1
	}
	idx := 0
	for i, n := range remaining {
		if n < 0 {
			n = 0
		}
		if n > q.counts[i] {
			n = q.counts[i]
		}
		idx += n * q.strides[i]
	}
	k := len(q.counts)
	base := (t*q.states + idx) * k
	for i := 0; i < k; i++ {
		dst = append(dst, int(q.prices[base+i]))
	}
	return dst
}
