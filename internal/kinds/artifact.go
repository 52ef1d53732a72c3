package kinds

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"crowdpricing/internal/choice"
	"crowdpricing/internal/core"
)

// Solved artifacts: the one in-memory form of a solved policy. The engine
// caches these values, the campaign runtime quotes from them directly (the
// deadline, tradeoff and multi artifacts implement campaign.Quoter over
// their int32 price tables), and the server appends their wire bytes
// straight into the response. Each AppendJSON writes exactly what
// encoding/json wrote for the kind's wire type (core.DeadlinePolicy,
// TradeoffSchedule, MultiSchedule), pinned by the golden files in
// testdata/. Building an artifact makes the checks that marshaling and
// decoding the JSON used to make: the table dimensions match the problem,
// every price fits an int32 cell, and every float is finite (JSON has no
// NaN or ±Inf).

// DeadlineArtifact is a solved Section 3 policy.
type DeadlineArtifact struct {
	// Problem is a private copy of the solved request.
	Problem DeadlineRequest
	// Prices[t*(N+1)+n] is the optimal price in cents with n tasks
	// remaining at interval t, for t in [0, Intervals).
	Prices []int32
	// Opt[t*(N+1)+n] is the optimal expected cost-to-go, for t in
	// [0, Intervals]; row Intervals holds the terminal penalties.
	Opt []float64
}

func newDeadlineArtifact(pol *core.DeadlinePolicy) (*DeadlineArtifact, error) {
	p := pol.Problem
	if p == nil {
		return nil, fmt.Errorf("kinds: deadline policy has no problem")
	}
	l, ok := p.Accept.(choice.Logistic)
	if !ok {
		return nil, fmt.Errorf("kinds: acceptance curve %T is not serializable", p.Accept)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("kinds: solved deadline problem invalid: %w", err)
	}
	a := &DeadlineArtifact{Problem: DeadlineRequest{
		N: p.N, HorizonHours: p.Horizon, Intervals: p.Intervals,
		Lambdas: slices.Clone(p.Lambdas), Accept: LogisticParams{S: l.S, B: l.B, M: l.M},
		MinPrice: p.MinPrice, MaxPrice: p.MaxPrice,
		Penalty: p.Penalty, Alpha: p.Alpha, TruncEps: p.TruncEps,
	}}
	if err := checkFinite("deadline problem", a.Problem.HorizonHours, l.S, l.B, l.M,
		p.Penalty, p.Alpha, p.TruncEps); err != nil {
		return nil, err
	}
	if err := checkFinite("deadline lambdas", p.Lambdas...); err != nil {
		return nil, err
	}
	width := p.N + 1
	if len(pol.Price) != p.Intervals || len(pol.Opt) != p.Intervals+1 {
		return nil, fmt.Errorf("kinds: deadline tables have %d/%d rows, want %d/%d",
			len(pol.Price), len(pol.Opt), p.Intervals, p.Intervals+1)
	}
	a.Prices = make([]int32, 0, p.Intervals*width)
	for t, row := range pol.Price {
		if len(row) != width {
			return nil, fmt.Errorf("kinds: deadline price row %d has %d entries, want %d", t, len(row), width)
		}
		for n, c := range row {
			if c < p.MinPrice || c > p.MaxPrice || c != int(int32(c)) {
				return nil, fmt.Errorf("kinds: deadline price %d at (%d,%d) outside [%d,%d] or an int32 cell",
					c, n, t, p.MinPrice, p.MaxPrice)
			}
			a.Prices = append(a.Prices, int32(c))
		}
	}
	a.Opt = make([]float64, 0, (p.Intervals+1)*width)
	for t, row := range pol.Opt {
		if len(row) != width {
			return nil, fmt.Errorf("kinds: deadline opt row %d has %d entries, want %d", t, len(row), width)
		}
		if err := checkFinite(fmt.Sprintf("deadline opt row %d", t), row...); err != nil {
			return nil, err
		}
		a.Opt = append(a.Opt, row...)
	}
	return a, nil
}

// AppendJSON implements engine.Artifact: the core.DeadlinePolicy wire form.
func (a *DeadlineArtifact) AppendJSON(dst []byte) []byte {
	p := &a.Problem
	// Grow once up front: cells print in under 20 bytes (prices in under
	// 4), and a paper-scale form is ~312 KB, which append would otherwise
	// reach through dozens of reallocations.
	dst = slices.Grow(dst, 20*(len(a.Opt)+len(p.Lambdas))+4*len(a.Prices)+256)
	dst = append(dst, `{"n":`...)
	dst = strconv.AppendInt(dst, int64(p.N), 10)
	dst = append(dst, `,"horizon_hours":`...)
	dst = appendFloat(dst, p.HorizonHours)
	dst = append(dst, `,"intervals":`...)
	dst = strconv.AppendInt(dst, int64(p.Intervals), 10)
	dst = append(dst, `,"lambdas":`...)
	dst = appendFloats(dst, p.Lambdas)
	dst = append(dst, `,"accept":{"s":`...)
	dst = appendFloat(dst, p.Accept.S)
	dst = append(dst, `,"b":`...)
	dst = appendFloat(dst, p.Accept.B)
	dst = append(dst, `,"m":`...)
	dst = appendFloat(dst, p.Accept.M)
	dst = append(dst, `},"min_price":`...)
	dst = strconv.AppendInt(dst, int64(p.MinPrice), 10)
	dst = append(dst, `,"max_price":`...)
	dst = strconv.AppendInt(dst, int64(p.MaxPrice), 10)
	dst = append(dst, `,"penalty":`...)
	dst = appendFloat(dst, p.Penalty)
	dst = append(dst, `,"alpha":`...)
	dst = appendFloat(dst, p.Alpha)
	dst = append(dst, `,"trunc_eps":`...)
	dst = appendFloat(dst, p.TruncEps)
	dst = append(dst, `,"price":[`...)
	for t := 0; t < p.Intervals; t++ {
		if t > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt32s(dst, a.Prices[t*(p.N+1):(t+1)*(p.N+1)])
	}
	dst = append(dst, `],"opt":[`...)
	for t := 0; t <= p.Intervals; t++ {
		if t > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloats(dst, a.Opt[t*(p.N+1):(t+1)*(p.N+1)])
	}
	return append(dst, "]}"...)
}

// Types, Horizon, InitialCounts and AppendQuote make the artifact a
// campaign.Quoter. AppendQuote matches core.DeadlinePolicy.PriceAt bit for
// bit, including its clamps and the n<=0 → MinPrice idle price.
func (a *DeadlineArtifact) Types() int           { return 1 }
func (a *DeadlineArtifact) Horizon() int         { return a.Problem.Intervals }
func (a *DeadlineArtifact) InitialCounts() []int { return []int{a.Problem.N} }
func (a *DeadlineArtifact) AppendQuote(dst []int, remaining []int, t int) []int {
	p := &a.Problem
	n := remaining[0]
	if n <= 0 {
		return append(dst, p.MinPrice)
	}
	if n > p.N {
		n = p.N
	}
	if t < 0 {
		t = 0
	}
	if t >= p.Intervals {
		t = p.Intervals - 1
	}
	return append(dst, int(a.Prices[t*(p.N+1)+n]))
}

// TradeoffArtifact is a solved Section 6 stationary policy.
type TradeoffArtifact struct {
	// Prices[n] is the price in cents to post while n tasks remain.
	Prices []int32
	// Value[n] is the optimal expected remaining objective.
	Value []float64
}

func newTradeoffArtifact(pol *core.TradeoffPolicy, n int) (*TradeoffArtifact, error) {
	if len(pol.Price) != n+1 || len(pol.Value) != n+1 {
		return nil, fmt.Errorf("kinds: tradeoff tables have %d/%d entries, want %d",
			len(pol.Price), len(pol.Value), n+1)
	}
	if err := checkFinite("tradeoff value", pol.Value...); err != nil {
		return nil, err
	}
	a := &TradeoffArtifact{Prices: make([]int32, len(pol.Price)), Value: slices.Clone(pol.Value)}
	for i, c := range pol.Price {
		if c != int(int32(c)) {
			return nil, fmt.Errorf("kinds: tradeoff price %d overflows an int32 cell", c)
		}
		a.Prices[i] = int32(c)
	}
	return a, nil
}

// AppendJSON implements engine.Artifact: the TradeoffSchedule wire form.
func (a *TradeoffArtifact) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"price":`...)
	dst = appendInt32s(dst, a.Prices)
	dst = append(dst, `,"value":`...)
	dst = appendFloats(dst, a.Value)
	return append(dst, '}')
}

// Types, Horizon, InitialCounts and AppendQuote make the artifact a
// campaign.Quoter. The price depends only on the remaining count, never on
// time, so the policy has no horizon.
func (a *TradeoffArtifact) Types() int           { return 1 }
func (a *TradeoffArtifact) Horizon() int         { return 0 }
func (a *TradeoffArtifact) InitialCounts() []int { return []int{len(a.Prices) - 1} }
func (a *TradeoffArtifact) AppendQuote(dst []int, remaining []int, t int) []int {
	n := remaining[0]
	if n < 0 {
		n = 0
	}
	if n >= len(a.Prices) {
		n = len(a.Prices) - 1
	}
	return append(dst, int(a.Prices[n]))
}

// MultiArtifact is a solved general-k joint policy. Joint states are count
// vectors flattened row-major (the last type's count varies fastest), the
// MultiSchedule wire layout.
type MultiArtifact struct {
	// Counts is the batch size per type; Strides[i] is type i's step in
	// the state index, and States the number of joint states.
	Counts  []int
	Strides []int
	States  int
	// Intervals is the number of DP intervals.
	Intervals int
	// Prices[(t*States+s)*len(Counts)+i] is type i's price in cents in
	// joint state s at interval t.
	Prices []int32
	// Value is the expected total objective from the full-count state.
	Value float64
}

func newMultiArtifact(pol *core.MultiPolicy, counts []int, intervals int) (*MultiArtifact, error) {
	k := len(counts)
	a := &MultiArtifact{Counts: slices.Clone(counts), Strides: make([]int, k), States: 1, Intervals: intervals}
	for i := k - 1; i >= 0; i-- {
		a.Strides[i] = a.States
		a.States *= counts[i] + 1
	}
	if k == 0 || len(pol.Prices) != intervals || len(pol.Opt) == 0 || len(pol.Opt[0]) != a.States {
		return nil, fmt.Errorf("kinds: malformed multi policy (%d types, %d/%d interval rows)",
			k, len(pol.Prices), intervals)
	}
	// The full-count state is the last index in the row-major layout.
	a.Value = pol.Opt[0][a.States-1]
	if err := checkFinite("multi value", a.Value); err != nil {
		return nil, err
	}
	a.Prices = make([]int32, 0, intervals*a.States*k)
	for t, row := range pol.Prices {
		if len(row) != a.States {
			return nil, fmt.Errorf("kinds: multi price row %d has %d states, want %d", t, len(row), a.States)
		}
		for s, vec := range row {
			if len(vec) != k {
				return nil, fmt.Errorf("kinds: multi state (%d,%d) has %d prices, want %d", t, s, len(vec), k)
			}
			for _, c := range vec {
				if c != int(int32(c)) {
					return nil, fmt.Errorf("kinds: multi price %d overflows an int32 cell", c)
				}
				a.Prices = append(a.Prices, int32(c))
			}
		}
	}
	return a, nil
}

// AppendJSON implements engine.Artifact: the MultiSchedule wire form.
func (a *MultiArtifact) AppendJSON(dst []byte) []byte {
	k := len(a.Counts)
	dst = append(dst, `{"counts":[`...)
	for i, n := range a.Counts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	dst = append(dst, `],"intervals":`...)
	dst = strconv.AppendInt(dst, int64(a.Intervals), 10)
	dst = append(dst, `,"prices":[`...)
	for t := 0; t < a.Intervals; t++ {
		if t > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for s := 0; s < a.States; s++ {
			if s > 0 {
				dst = append(dst, ',')
			}
			base := (t*a.States + s) * k
			dst = appendInt32s(dst, a.Prices[base:base+k])
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"value":`...)
	dst = appendFloat(dst, a.Value)
	return append(dst, '}')
}

// Types, Horizon, InitialCounts and AppendQuote make the artifact a
// campaign.Quoter: each count clamps to [0, Counts[i]] and t to the
// horizon.
func (a *MultiArtifact) Types() int           { return len(a.Counts) }
func (a *MultiArtifact) Horizon() int         { return a.Intervals }
func (a *MultiArtifact) InitialCounts() []int { return slices.Clone(a.Counts) }
func (a *MultiArtifact) AppendQuote(dst []int, remaining []int, t int) []int {
	if t < 0 {
		t = 0
	}
	if t >= a.Intervals {
		t = a.Intervals - 1
	}
	idx := 0
	for i, n := range remaining {
		if n < 0 {
			n = 0
		}
		if n > a.Counts[i] {
			n = a.Counts[i]
		}
		idx += n * a.Strides[i]
	}
	k := len(a.Counts)
	base := (t*a.States + idx) * k
	for _, c := range a.Prices[base : base+k] {
		dst = append(dst, int(c))
	}
	return dst
}

// checkFinite fails on the first NaN or ±Inf in vs, the values
// encoding/json refuses to marshal.
func checkFinite(what string, vs ...float64) error {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("kinds: %s holds %v at %d, which has no JSON form", what, v, i)
		}
	}
	return nil
}

// appendFloat appends f exactly as encoding/json encodes a float64: the
// shortest round-tripping digits, in 'f' form unless the magnitude is
// below 1e-6 or at least 1e21, with an exponent of at least one digit
// ("1e-7", not "1e-07"). f must be finite.
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendFloats appends vs as a JSON array (null when nil, as
// encoding/json writes a nil slice).
func appendFloats(dst []byte, vs []float64) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, v)
	}
	return append(dst, ']')
}

// appendInt32s appends vs as a JSON array (null when nil).
func appendInt32s(dst []byte, vs []int32) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}
