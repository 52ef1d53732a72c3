package sim

import (
	"context"
	"encoding/json"
	"testing"

	"crowdpricing/internal/core"
	"crowdpricing/internal/dist"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
)

// engineSolvedProblem solves a registry-sampled deadline spec through the
// real engine and returns the problem recovered from the solved artifact —
// the service-path ingredients, not a hand-constructed core problem.
func engineSolvedProblem(t *testing.T, seed int64) (*core.DeadlineProblem, *core.DeadlinePolicy) {
	t.Helper()
	def, ok := kinds.Default().Lookup(kinds.KindDeadline)
	if !ok {
		t.Fatal("deadline kind not registered")
	}
	spec := def.Sample(seed, "small")

	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	res, err := eng.Solve(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var pol core.DeadlinePolicy
	if err := json.Unmarshal(res.Value.AppendJSON(nil), &pol); err != nil {
		t.Fatal(err)
	}
	return pol.Problem, &pol
}

// TestAdaptiveBankFromEngineSolve is the satellite-task integration check:
// build the §5.2.5 policy bank from a problem that round-tripped through
// the kinds Spec + engine + JSON artifact pipeline, and verify (a) the
// bank's unit-factor policy matches the engine's artifact cell for cell,
// and (b) the adaptive controller runs deterministically by seed on it.
func TestAdaptiveBankFromEngineSolve(t *testing.T) {
	prob, pol := engineSolvedProblem(t, 17)

	cfg := AdaptiveConfig{Factors: []float64{0.5, 1, 2}, WindowIntervals: 3}
	bank, err := NewAdaptivePolicyBank(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The factor-1 member of the bank re-solves the exact problem the
	// engine solved; backward induction is deterministic, so the tables
	// must agree exactly.
	unit := bank.policyFor(1)
	for tt := range pol.Price {
		for n := range pol.Price[tt] {
			if unit.Price[tt][n] != pol.Price[tt][n] {
				t.Fatalf("bank unit policy differs from engine artifact at (n=%d, t=%d): %d vs %d",
					n, tt, unit.Price[tt][n], pol.Price[tt][n])
			}
		}
	}

	// A world running 2× hot: the adaptive run must be reproducible
	// seed-for-seed (the campaign runtime leans on this determinism).
	world := World{Lambdas: make([]float64, prob.Intervals), Accept: prob.Accept}
	for i, l := range prob.Lambdas {
		world.Lambdas[i] = 2 * l
	}
	run := func() TrialStats {
		st, err := RunAdaptiveDeadline(bank, world, 20, dist.NewRNG(99))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.MeanCost != b.MeanCost || a.CompletionRate != b.CompletionRate || a.MeanRemaining != b.MeanRemaining {
		t.Fatalf("adaptive runs diverged on equal seeds: %+v vs %+v", a, b)
	}
	// Full completion is rare at this scale (the sampled acceptance curves
	// sit near 1%), but the controller must make progress in a 2×-hot
	// world.
	if a.MeanRemaining >= float64(prob.N) {
		t.Fatalf("adaptive controller completed nothing in a 2×-hot world (mean remaining %v of %d)", a.MeanRemaining, prob.N)
	}
}

// TestAdaptiveBankMatchesEngineScaledSolves ties the two re-planning
// implementations together: each bank policy equals the engine's solve of
// the explicitly scaled kinds spec — the exact policies the campaign
// runtime's AdaptivePolicyBank serves online.
func TestAdaptiveBankMatchesEngineScaledSolves(t *testing.T) {
	def, _ := kinds.Default().Lookup(kinds.KindDeadline)
	base, ok := def.Sample(21, "small").(*kinds.DeadlineRequest)
	if !ok {
		t.Fatal("deadline sampler did not return a *kinds.DeadlineRequest")
	}

	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	res, err := eng.Solve(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	var basePol core.DeadlinePolicy
	if err := json.Unmarshal(res.Value.AppendJSON(nil), &basePol); err != nil {
		t.Fatal(err)
	}

	factors := []float64{0.5, 1, 1.5}
	bank, err := NewAdaptivePolicyBank(basePol.Problem, AdaptiveConfig{Factors: factors, WindowIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range factors {
		scaled := *base
		scaled.Lambdas = make([]float64, len(base.Lambdas))
		for i, l := range base.Lambdas {
			scaled.Lambdas[i] = f * l
		}
		res, err := eng.Solve(context.Background(), &scaled)
		if err != nil {
			t.Fatal(err)
		}
		var enginePol core.DeadlinePolicy
		if err := json.Unmarshal(res.Value.AppendJSON(nil), &enginePol); err != nil {
			t.Fatal(err)
		}
		bankPol := bank.policyFor(f)
		for tt := range enginePol.Price {
			for n := range enginePol.Price[tt] {
				if bankPol.Price[tt][n] != enginePol.Price[tt][n] {
					t.Fatalf("factor %g: bank and engine disagree at (n=%d, t=%d): %d vs %d",
						f, n, tt, bankPol.Price[tt][n], enginePol.Price[tt][n])
				}
			}
		}
	}
}
