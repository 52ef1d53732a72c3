package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"crowdpricing/internal/dist"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/hdr"
	"crowdpricing/internal/server"
)

func TestOpStreamHashDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, err := generate(wl, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(wl, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(wl, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: equal seeds gave hashes %s and %s", wl, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same hash %s", wl, a.hash)
		}
	}
}

func TestWorkloadPremisesInTheStream(t *testing.T) {
	cold, err := generate(wlCold, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]int(nil), cold.prepare...), cold.solves...)
	if got := distinctFingerprints(cold.problems, all); got != len(all) {
		t.Errorf("solve-cold: %d distinct problems among %d requests", got, len(all))
	}
	if len(cold.prepare) != engine.DefaultCacheSize {
		t.Errorf("solve-cold fills %d LRU entries, want %d", len(cold.prepare), engine.DefaultCacheSize)
	}
	warm, err := generate(wlWarm, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := distinctFingerprints(warm.problems, warm.solves); got != warmSet {
		t.Errorf("solve-warm cycles over %d problems, want %d", got, warmSet)
	}
	camp, err := generate(wlCampaign, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sessionFP := map[string]bool{}
	for _, p := range camp.problems {
		sessionFP[p.fp] = true
	}
	if len(sessionFP) != sessionProblems {
		t.Errorf("campaign sessions use %d problems, want %d", len(sessionFP), sessionProblems)
	}
	for _, s := range camp.live {
		if sessionFP[camp.liveProbs[s.problem].fp] {
			t.Fatalf("a live campaign shares a session problem's fingerprint")
		}
	}
	if len(camp.live) < liveCampaigns*9/10 {
		t.Errorf("only %d live campaigns", len(camp.live))
	}
	loop, err := generate(wlLoop, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(loop.problems) > loopProblems || len(loop.sessions) != loopCampaigns {
		t.Errorf("campaign-loop: %d problems, %d campaigns", len(loop.problems), len(loop.sessions))
	}
	for _, s := range loop.sessions {
		if len(s.arrivals) != loopSteps {
			t.Fatalf("campaign-loop script of %d steps, want %d", len(s.arrivals), loopSteps)
		}
	}
}

// instantDaemon answers every request at once with a refusal: the
// fastest daemon there could be.
func instantDaemon(t *testing.T) string {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "refused", http.StatusBadRequest)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// drivePhases runs every client's drive against base in phases of dur,
// as a --trace 0 (one phase) or --trace 1 (four) run does.
func drivePhases(wl workload, base string, phases int, dur time.Duration) *recorder {
	cs := make([]*client, clients)
	for k := range cs {
		cs[k] = newClient(k, base)
		defer cs[k].close()
	}
	all := &recorder{}
	for range phases {
		deadline := time.Now().Add(dur)
		runClients(cs, func(c *client) {
			c.rec = &recorder{}
			wl.drive(context.Background(), c, deadline)
		})
		for _, c := range cs {
			all.merge(c.rec)
		}
	}
	return all
}

// TestColdStreamOutlastsAnInstantDaemon: solve-cold's distinct problems
// last a whole run even when every call returns at once, because the
// think time bounds the request rate.
func TestColdStreamOutlastsAnInstantDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the closed loop for seconds")
	}
	base := instantDaemon(t)
	for _, phases := range []int{1, 4} {
		cold, err := generate(wlCold, 9, 1)
		if err != nil {
			t.Fatal(err)
		}
		cw := newSolveWorkload(cold)
		rec := drivePhases(cw, base, phases, time.Second/time.Duration(phases))
		taken := int(cw.pos.next.Load())
		if taken > len(cold.solves) || strings.Contains(strings.Join(rec.notes, "\n"), "exhausted") {
			t.Errorf("solve-cold, %d phases: %d requests on a stream of %d", phases, taken, len(cold.solves))
		}
		if rec.ops[opSolve].attempted < 500 {
			t.Errorf("solve-cold, %d phases: only %d requests in a second", phases, rec.ops[opSolve].attempted)
		}
	}
}

func TestPercentilesAgreeWithHDR(t *testing.T) {
	r := dist.NewRNG(11)
	for _, n := range []int{1, 15, 500, 5000} {
		lat := make([]time.Duration, n)
		h := hdr.New()
		for i := range lat {
			// Log-uniform between 20 µs and 40 ms, the range the
			// workloads span.
			lat[i] = time.Duration(20e3 * math.Pow(2, r.Uniform(0, 11)))
			h.Record(lat[i])
		}
		p50, tail := quantiles(lat)
		for _, p := range []percentile{p50, tail} {
			exact := time.Duration(p.MS * float64(time.Millisecond))
			got := h.QuantileDuration(p.Q)
			// hdr reports its bucket's upper bound, at most 1/32 above
			// the sample (and never above the maximum).
			if got < exact || float64(got) > float64(exact)*(1+1.0/32)+1 {
				t.Errorf("n=%d q=%v: exact %v, hdr %v", n, p.Q, exact, got)
			}
		}
		if n >= 1000 && (tail.Q != 0.99 || tail.Beyond < 10) {
			t.Errorf("n=%d: tail is p%v with %d beyond, want p99", n, tail.Q*100, tail.Beyond)
		}
		if n > 20 && n < 1000 && tail.Beyond < 10 {
			t.Errorf("n=%d: tail p%v has only %d samples beyond", n, tail.Q*100, tail.Beyond)
		}
	}
}

func TestRecorderAccounting(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	a.begin(opQuote)
	a.ok(opQuote, time.Millisecond)
	a.begin(opQuote)
	a.fail(opQuote, fmt.Errorf("refused"))
	b.begin(opCreate)
	b.wrongAnswer(opCreate, "fingerprint")
	b.begin(opCreate)
	b.ok(opCreate, 2*time.Millisecond)
	a.merge(b)
	attempted, succeeded, failed, wrong := a.totals()
	if attempted != 4 || succeeded != 2 || failed != 2 || wrong != 1 {
		t.Fatalf("totals %d/%d/%d/%d, want 4 attempted, 2 succeeded, 2 failed, 1 wrong", attempted, succeeded, failed, wrong)
	}
	if !a.balanced() {
		t.Fatal("merged recorder is not balanced")
	}
	a.ops[opQuote].attempted++
	if a.balanced() {
		t.Fatal("an attempt with no outcome went unnoticed")
	}
}

func TestSolveCheckRejectsWrongAnswers(t *testing.T) {
	st, err := generate(wlWarm, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := newSolveWorkload(st)
	w.refs[0] = []byte(`{"ok":true}`)
	good := server.SolveResponse{Kind: "deadline", Fingerprint: st.problems[0].fp, CacheHit: true, Result: []byte(`{"ok":true}`)}
	if why := w.check(0, &good, true); why != "" {
		t.Fatalf("right answer rejected: %s", why)
	}
	for name, mut := range map[string]func(*server.SolveResponse){
		"fingerprint": func(r *server.SolveResponse) { r.Fingerprint = "deadline/efficient:0" },
		"cache_hit":   func(r *server.SolveResponse) { r.CacheHit = false },
		"result":      func(r *server.SolveResponse) { r.Result = []byte(`{"ok":false}`) },
	} {
		bad := good
		mut(&bad)
		if why := w.check(0, &bad, true); why == "" {
			t.Errorf("wrong %s accepted", name)
		}
	}
}

// TestClosedLoopEndToEnd runs the real command briefly: every op is
// accounted, every answer checked, and the last line is the result.
func TestClosedLoopEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon and solves paper-scale problems")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("the default load is two clients")
	}
	for _, wl := range []string{wlWarm, wlLoop} {
		var out, errs bytes.Buffer
		code := run([]string{"--workload", wl, "--seed", "2", "--seconds", "1", "--trace", "0", "--out", t.TempDir()}, &out, &errs)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s\n%s", wl, code, errs.String(), out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%s: result %+v", wl, res)
		}
		for _, m := range endToEndMetrics {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || v.Value <= 0 {
				t.Errorf("%s: metric %s = %+v", wl, m.Name, v)
			}
		}
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d metrics, want %d", wl, len(res.Metrics), len(endToEndMetrics))
		}
	}
}

func TestRefusesFewerCPUsThanClients(t *testing.T) {
	if err := checkCPUs(clients - 1); err == nil {
		t.Errorf("%d clients on %d CPUs accepted", clients, clients-1)
	}
	if err := checkCPUs(clients); err != nil {
		t.Errorf("%d clients on %d CPUs refused: %v", clients, clients, err)
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the program in step.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	if fmt.Sprint(manifest.EndToEnd) != fmt.Sprint(endToEndMetrics) {
		t.Errorf("end_to_end %v\nprogram      %v", manifest.EndToEnd, endToEndMetrics)
	}
	if fmt.Sprint(manifest.PerLayer) != fmt.Sprint(perLayerMetrics()) {
		t.Errorf("per_layer %v\nprogram   %v", manifest.PerLayer, perLayerMetrics())
	}
}

func TestTraceRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon and solves paper-scale problems")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("the default load is two clients")
	}
	var out, errs bytes.Buffer
	code := run([]string{"--workload", wlCampaign, "--seed", "4", "--seconds", "2", "--trace", "1", "--out", t.TempDir()}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errs.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayerMetrics() {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("traced run lacks %s", m.Name)
		}
	}
	for _, o := range []op{opCreate, opObserve, opQuote, opFinish} {
		total := res.Metrics["total."+o.String()+"_ms"].Value
		sum := res.Metrics["unattributed."+o.String()+"_ms"].Value
		for _, l := range []string{"http", "server", "engine", "core", "campaign", "wal"} {
			sum += res.Metrics[l+"."+o.String()+"_ms"].Value
		}
		if total <= 0 || (sum-total) > 1e-9*total || (total-sum) > 1e-9*total {
			t.Errorf("%s: parts add to %v, traced mean %v", o, sum, total)
		}
	}
	if v := res.Metrics["engine.hit_ratio"].Value; v != 1 {
		t.Errorf("campaign creates: engine hit ratio %v, want 1", v)
	}
	if v := res.Metrics["campaign.intern_hit_ratio"].Value; v > 0.1 {
		t.Errorf("campaign creates: intern hit ratio %v, want ≈0", v)
	}
}

// distinctFingerprints reports how many distinct fingerprints the listed
// problems carry.
func distinctFingerprints(ps []problem, idx []int) int {
	seen := make(map[string]bool, len(idx))
	for _, i := range idx {
		seen[ps[i].fp] = true
	}
	return len(seen)
}
