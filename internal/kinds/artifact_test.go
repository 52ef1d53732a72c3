package kinds

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"crowdpricing/internal/core"
	"crowdpricing/internal/engine"
)

// marshalFloat is the reference: encoding/json's float64 encoding.
func marshalFloat(t testing.TB, f float64) string {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", f, err)
	}
	return string(b)
}

// TestAppendFloatMatchesEncodingJSON pins appendFloat to encoding/json on
// the values where its format switches: the 'f'/'e' cutoffs at 1e-6 and
// 1e21, signed zeros, subnormals, integers, and two-digit negative
// exponents that encoding/json shortens ("e-07" → "e-7").
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1),
		1e-6, 1e-7, -1e-6, -1e-7, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e20, 1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		5e-324, -5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
		1, -1, 42, 1 << 53, -(1 << 53), 123456789012345678,
		1.5e-7, 3.25e-9, 1e-10, 1e-100, 1.7976931348623157e308, 1e300,
		0.1, 1.0 / 3, -2.5, 4.349015789867156, 43.476023368241556, -0.39, 2000,
	} {
		got := string(appendFloat(nil, f))
		if want := marshalFloat(t, f); got != want {
			t.Errorf("appendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
	// appendFloat appends: an existing prefix survives, and the exponent
	// clean-up touches only the number it wrote.
	if got := string(appendFloat([]byte("x:"), 1e-7)); got != "x:1e-7" {
		t.Errorf("appendFloat onto a prefix = %q, want %q", got, "x:1e-7")
	}
}

// FuzzAppendFloat checks appendFloat against encoding/json on arbitrary
// finite float64 bit patterns.
func FuzzAppendFloat(f *testing.F) {
	for _, seed := range []float64{0, 1e-6, 1e-7, 1e20, 1e21, 5e-324, 1 << 53, -1.5e-9, 0.1} {
		f.Add(math.Float64bits(seed))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		if got, want := string(appendFloat(nil, v)), marshalFloat(t, v); got != want {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", v, got, want)
		}
	})
}

// TestArtifactsMatchEncodingJSON: every kind's AppendJSON writes exactly
// the bytes encoding/json writes for the wire type, over several sampled
// problems per size, and appends after an existing prefix.
func TestArtifactsMatchEncodingJSON(t *testing.T) {
	ctx := context.Background()
	type sizes struct {
		size  string
		seeds []int64
	}
	for _, sz := range []sizes{{"small", []int64{1, 2, 3, 4}}, {"medium", []int64{5, 6}}} {
		for _, seed := range sz.seeds {
			dl := sampleDeadline(seed, sz.size).(*DeadlineRequest)
			pol, err := dl.problem().SolveEfficient()
			if err != nil {
				t.Fatal(err)
			}
			checkArtifact(t, dl, pol)

			tr := sampleTradeoff(seed, sz.size).(*TradeoffRequest)
			tpol, err := tr.problem().SolveWorkerArrival()
			if err != nil {
				t.Fatal(err)
			}
			checkArtifact(t, tr, TradeoffSchedule{Price: tpol.Price, Value: tpol.Value})

			mr := sampleMulti(seed, sz.size).(*MultiRequest)
			mpol, err := mr.problem().Solve()
			if err != nil {
				t.Fatal(err)
			}
			checkArtifact(t, mr, MultiSchedule{Counts: mr.Counts, Intervals: mr.Intervals,
				Prices: mpol.Prices, Value: mpol.Opt[0][len(mpol.Opt[0])-1]})

			a, err := sampleBudget(seed, sz.size).SolveArtifact(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !json.Valid(a.AppendJSON(nil)) {
				t.Errorf("budget seed %d: invalid JSON", seed)
			}
		}
	}
}

// checkArtifact compares spec's artifact with json.Marshal(want).
func checkArtifact(t *testing.T, spec engine.Spec, want any) {
	t.Helper()
	ref, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.SolveArtifact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.AppendJSON(nil); !bytes.Equal(got, ref) {
		t.Fatalf("%s: AppendJSON differs from encoding/json at byte %d", spec.Kind(), firstDiff(got, ref))
	}
	if got := a.AppendJSON([]byte("prefix")); string(got[:6]) != "prefix" || !bytes.Equal(got[6:], ref) {
		t.Fatalf("%s: AppendJSON does not append after an existing prefix", spec.Kind())
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestSolveArtifactRejectsNonFinite: a NaN or ±Inf anywhere in the solved
// policy fails the solve, as encoding/json's UnsupportedValueError did —
// an artifact must always have a wire form.
func TestSolveArtifactRejectsNonFinite(t *testing.T) {
	ctx := context.Background()
	for _, penalty := range []float64{math.NaN(), math.Inf(1)} {
		req := sampleDeadline(1, "small").(*DeadlineRequest)
		req.Penalty = penalty // passes Validate, poisons the terminal opt row
		if _, err := req.SolveArtifact(ctx); err == nil || !strings.Contains(err.Error(), "no JSON form") {
			t.Errorf("penalty %v: SolveArtifact err = %v, want a non-finite error", penalty, err)
		}
		if _, err := req.Solve(ctx); err == nil {
			t.Errorf("penalty %v: Solve succeeded", penalty)
		}
	}
	req := sampleDeadline(1, "small").(*DeadlineRequest)
	pol, err := req.problem().SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		saved := pol.Opt[2][3]
		pol.Opt[2][3] = cell
		if _, err := newDeadlineArtifact(pol); err == nil {
			t.Errorf("opt cell %v: artifact built", cell)
		}
		pol.Opt[2][3] = saved
	}
	if _, err := newTradeoffArtifact(&core.TradeoffPolicy{Price: []int{1, 2}, Value: []float64{0, math.NaN()}}, 1); err == nil {
		t.Error("tradeoff NaN value: artifact built")
	}
}

// TestDeadlineArtifactChecksTables: the build makes the checks the JSON
// decode used to make — dimensions, the price range, int32 cells.
func TestDeadlineArtifactChecksTables(t *testing.T) {
	req := sampleDeadline(1, "small").(*DeadlineRequest)
	pol, err := req.problem().SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newDeadlineArtifact(pol); err != nil {
		t.Fatalf("clean policy rejected: %v", err)
	}
	for name, mutate := range map[string]func(p *core.DeadlinePolicy){
		"short price row":    func(p *core.DeadlinePolicy) { p.Price[1] = p.Price[1][:3] },
		"missing opt row":    func(p *core.DeadlinePolicy) { p.Opt = p.Opt[:len(p.Opt)-1] },
		"price below min":    func(p *core.DeadlinePolicy) { p.Price[0][1] = p.Problem.MinPrice - 1 },
		"price above max":    func(p *core.DeadlinePolicy) { p.Price[0][1] = p.Problem.MaxPrice + 1 },
		"price beyond int32": func(p *core.DeadlinePolicy) { p.Problem.MaxPrice = 1 << 40; p.Price[0][1] = 1 << 33 },
		"invalid problem":    func(p *core.DeadlinePolicy) { p.Problem.N = 0 },
	} {
		p, err := req.problem().SolveEfficient()
		if err != nil {
			t.Fatal(err)
		}
		mutate(p)
		if _, err := newDeadlineArtifact(p); err == nil {
			t.Errorf("%s: artifact built", name)
		}
	}
}
