package campaign

import "crowdpricing/internal/kinds"

// Quoter is the hot-path view of a solved policy: an O(1) table lookup from
// campaign state (remaining task counts, elapsed interval) to the price(s)
// the policy dictates right now. Quoters are immutable once solved — the
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

// The solved artifacts of the kinds with a campaign runtime are the
// quoters: a campaign reads the engine's artifact in place.
var (
	_ Quoter = (*kinds.DeadlineArtifact)(nil)
	_ Quoter = (*kinds.TradeoffArtifact)(nil)
	_ Quoter = (*kinds.MultiArtifact)(nil)
)

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
