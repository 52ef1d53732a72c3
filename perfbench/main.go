// Command perfbench is the repository's benchmark: per-operation latency
// and throughput of the pricing daemon on three workloads, with every
// answer checked, and (with --trace 1) each operation split across the
// repository's layers.
//
// The daemon runs in-process with default options on a real 127.0.0.1
// listener, as cmd/priced serves it. A closed loop of two callers (the
// command refuses to run on fewer CPUs) each holds one keep-alive
// connection and waits for every reply before its next request, the way
// requesters do. Inputs come from internal/bench's seeded generator, so
// equal seeds give equal op streams (the report prints their SHA-256).
//
// Workloads (see README.md for why each exists):
//
//	solve-cold     every request a distinct paper-scale deadline problem:
//	               an engine miss and an MDP solve, with the LRU full
//	solve-warm     requests cycle over 16 problems solved during set-up:
//	               all engine hits, the ~312 KB artifact encoded and decoded
//	campaign       create → 8×(observe, quote) → finish sessions against a
//	               daemon restarted from a WAL of 2,000 live campaigns
//	campaign-loop  observe, quote on campaigns created during set-up: the
//	               online loop alone, over the paper's 72 intervals
//
// Usage:
//
//	go run . --workload solve-warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). Any wrong answer or failed operation makes
// the exit status non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// A --trace 0 run boots the daemon at least minBoots times, and more
// while the boots so far took less than setupBudget in all, up to
// maxBoots; setup_s is the median. A set-up of a tenth of a second
// varies by a quarter from boot to boot, so it gets more boots.
const (
	minBoots    = 3
	maxBoots    = 15
	setupBudget = 2 * time.Second
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer split")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the report, spans and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	case !slices.Contains(workloads, cfg.workload):
		fmt.Fprintf(stderr, "perfbench: --workload %q: want one of %s\n", cfg.workload, strings.Join(workloads, ", "))
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	case cfg.seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, got %d\n", cfg.seconds)
		return 2
	}
	if err := checkCPUs(runtime.NumCPU()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := execute(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// checkCPUs refuses a machine with fewer CPUs than the closed loop has
// clients.
func checkCPUs(nproc int) error {
	if nproc < clients {
		return fmt.Errorf("%d clients: want at most nproc=%d (a closed loop with more clients than CPUs measures the scheduler)", clients, nproc)
	}
	return nil
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wrapper wraps the daemon's handler (traced runs).
type wrapper func(http.Handler) http.Handler

// workload is what a workload does around the shared measurement.
type workload interface {
	// prepare builds untimed fixtures and references.
	prepare(ctx context.Context, work string) error
	// stage runs untimed right before each boot.
	stage() error
	// boot is the timed set-up: construct the daemon and bring it to
	// steady state.
	boot(ctx context.Context, wrap wrapper) (*daemon, error)
	// verifyBoot runs the untimed checks of a fresh daemon.
	verifyBoot(ctx context.Context, d *daemon) error
	// drive runs one client's closed loop until deadline.
	drive(ctx context.Context, c *client, deadline time.Time)
	// markTraced brackets the traced segment whose inputs isolate reuses.
	markTraced(from bool)
	// isolate times the layers inside the daemon as isolated calls on the
	// traced segment's inputs, in milliseconds per op by "<layer>.<op>".
	isolate(ctx context.Context, work string) (map[string]float64, error)
	// verify runs the post-run checks; it returns the wrong answers found.
	verify(ctx context.Context) (int, []string, error)
	// checked counts answers checked beyond the inline ones.
	checked() int
	// fsync is the timer on the booted daemon's WAL (nil without one).
	fsync() *fsyncTimer
}

// report is everything a run measured, written next to the spans.
type report struct {
	Env       env                     `json:"env"`
	SetupS    []float64               `json:"setup_s"`
	ElapsedS  float64                 `json:"elapsed_s"`
	Ops       map[string]opReport     `json:"ops"`
	Named     map[string]metric       `json:"named_metrics,omitempty"`
	Split     map[string]splitReport  `json:"split,omitempty"`
	Metrics   map[string]metric       `json:"metrics"`
	Notes     []string                `json:"notes,omitempty"`
	Isolated  map[string]float64      `json:"isolated_ms,omitempty"`
	Counters  map[string]float64      `json:"counters,omitempty"`
	Phases    map[string]phaseSummary `json:"phases,omitempty"`
	Checked   int                     `json:"post_run_checked"`
	WrongPost int                     `json:"post_run_wrong"`
}

type env struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Clients     int    `json:"clients"`
	Connections int64  `json:"connections"`
	StreamHash  string `json:"op_stream_sha256"`
}

type opReport struct {
	Attempted int64      `json:"attempted"`
	Succeeded int64      `json:"succeeded"`
	Failed    int64      `json:"failed"`
	Wrong     int64      `json:"wrong"`
	P50       percentile `json:"p50"`
	Tail      percentile `json:"tail"`
	MeanMS    float64    `json:"mean_ms"`
}

type phaseSummary struct {
	ElapsedS float64 `json:"elapsed_s"`
	OpsPerS  float64 `json:"ops_per_s"`
}

// splitReport is one op's traced mean and its parts; Unattributed is the
// residual, also given as a share of the mean.
type splitReport struct {
	N             int                `json:"n"`
	TotalMS       float64            `json:"total_ms"`
	Parts         map[string]float64 `json:"parts_ms"`
	Unattributed  float64            `json:"unattributed_ms"`
	ResidualShare float64            `json:"residual_share"`
}

// runner is one benchmark run: set-up, the measured phase, the checks.
type runner struct {
	cfg     config
	work    string
	wl      workload
	rep     *report
	d       *daemon
	clients []*client
	spans   *handlerSpans // traced runs only
}

func execute(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	r := &runner{cfg: cfg, work: filepath.Join(cfg.out, fmt.Sprintf("work-%d", os.Getpid()))}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.work)

	st, err := generate(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	switch cfg.workload {
	case wlCampaign:
		r.wl = newCampaignWorkload(st)
	case wlLoop:
		r.wl = newLoopWorkload(st)
	default:
		r.wl = newSolveWorkload(st)
	}
	r.rep = &report{Env: env{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Clients: clients, StreamHash: st.hash,
	}}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%v op_stream_sha256=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, st.hash)
	if err := r.wl.prepare(ctx, r.work); err != nil {
		return nil, fmt.Errorf("preparing %s: %w", cfg.workload, err)
	}
	// The live heap now holds the benchmark's own inputs and references;
	// heap_live_mb leaves them out.
	baseMB := liveHeapMB()
	if err := r.setUp(ctx); err != nil {
		return nil, err
	}
	defer func() {
		if r.d != nil {
			r.d.close()
		}
	}()

	var (
		rec     *recorder
		elapsed time.Duration
		heapMB  float64
		layer   map[string]float64
	)
	if cfg.trace {
		rec, elapsed, layer, err = r.traced(ctx)
		if err != nil {
			return nil, err
		}
	} else {
		rec, elapsed = r.phase(ctx, time.Duration(cfg.seconds)*time.Second)
		// Leave out the inputs and the latency samples, which grow with
		// the ops completed; the clients' own copies are dropped first.
		for _, c := range r.clients {
			c.rec = nil
		}
		heapMB = liveHeapMB() - baseMB - float64(rec.sampleBytes())/(1<<20)
	}
	for _, c := range r.clients {
		r.rep.Env.Connections += c.dials.Load()
		c.close()
	}
	err = r.d.close()
	r.d = nil
	if err != nil {
		return nil, err
	}

	wrongPost, notes, err := r.wl.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("post-run check: %w", err)
	}
	rep := r.rep
	rep.Checked, rep.WrongPost = r.wl.checked(), wrongPost
	rep.Notes = append(rec.notes, notes...)
	if rep.Env.Connections != clients {
		rep.Notes = append(rep.Notes, fmt.Sprintf("clients opened %d connections, want one each (%d)", rep.Env.Connections, clients))
	}

	attempted, succeeded, failed, wrong := rec.totals()
	failed += int64(wrongPost)
	rep.ElapsedS = elapsed.Seconds()
	rep.Ops = map[string]opReport{}
	var all []time.Duration
	for o := op(0); o < numOps; o++ {
		s := &rec.ops[o]
		if s.attempted == 0 {
			continue
		}
		all = append(all, s.lat...)
		p50, tail := quantiles(s.lat)
		rep.Ops[o.String()] = opReport{
			Attempted: s.attempted, Succeeded: s.succeeded, Failed: s.failed, Wrong: s.wrong,
			P50: p50, Tail: tail, MeanMS: mean(s.lat),
		}
	}
	res := &result{
		Correct:   rec.balanced() && wrong == 0 && wrongPost == 0 && rep.Env.Connections == clients,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for _, m := range perLayerMetrics() {
			res.Metrics[m.Name] = metric{Value: layer[m.Name], Unit: m.Unit}
		}
	} else {
		slices.Sort(all)
		values := map[string]float64{
			"setup_s":      median(rep.SetupS),
			"ops_per_s":    float64(succeeded) / elapsed.Seconds(),
			"mean_ms":      mean(all),
			"p95_ms":       quantileOf(all, 0.95).MS,
			"heap_live_mb": heapMB,
		}
		for _, m := range endToEndMetrics {
			res.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
		}
		rep.Named = namedMetrics(cfg.workload, rep, values, attempted, failed)
	}
	rep.Metrics = res.Metrics
	printReport(stdout, rep)
	name := fmt.Sprintf("report-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace))
	if err := writeJSON(filepath.Join(cfg.out, name), rep); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp boots the daemon — minBoots to maxBoots times untraced, keeping
// the last, once traced — and starts the clients.
func (r *runner) setUp(ctx context.Context) error {
	boots, budget := minBoots, setupBudget
	var wrap wrapper
	if r.cfg.trace {
		boots, budget = 1, 0
		r.spans = &handlerSpans{log: newSpanLog(time.Now(), 1<<15)}
		wrap = r.spans.wrap
	}
	var spent time.Duration
	for k := 0; k < maxBoots && (k < boots || spent < budget); k++ {
		if r.d != nil {
			if err := r.d.close(); err != nil {
				return err
			}
			r.d = nil
		}
		if err := r.wl.stage(); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		d, err := r.wl.boot(ctx, wrap)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", k+1, err)
		}
		took := time.Since(start)
		spent += took
		r.rep.SetupS = append(r.rep.SetupS, took.Seconds())
		r.d = d
	}
	if err := r.wl.verifyBoot(ctx, r.d); err != nil {
		return fmt.Errorf("checking the booted daemon: %w", err)
	}
	r.clients = make([]*client, clients)
	for k := range r.clients {
		r.clients[k] = newClient(k, r.d.base)
	}
	return nil
}

// phase runs the closed loop for dur and returns the merged accounting
// and the wall time until the last client finished.
func (r *runner) phase(ctx context.Context, dur time.Duration) (*recorder, time.Duration) {
	for _, c := range r.clients {
		c.rec = &recorder{}
	}
	deadline := time.Now().Add(dur)
	elapsed := runClients(r.clients, func(c *client) { r.wl.drive(ctx, c, deadline) })
	all := &recorder{}
	for _, c := range r.clients {
		all.merge(c.rec)
	}
	return all, elapsed
}

// traced runs four quarter-length segments, untraced and traced in turn
// so drift on the machine lands on both sides of the overhead ratio. The
// untraced ones give the counters; the traced ones the spans. Then it
// times the isolated calls and composes the per-layer metrics.
func (r *runner) traced(ctx context.Context) (*recorder, time.Duration, map[string]float64, error) {
	segment := time.Duration(r.cfg.seconds) * time.Second / 4
	clientSpans := make([]*spanLog, len(r.clients))
	for k := range r.clients {
		clientSpans[k] = newSpanLog(r.spans.log.epoch, 1<<14)
	}
	recU, recT := &recorder{}, &recorder{}
	var elU, elT time.Duration
	delta := counters{}
	for seg := 0; seg < 4; seg++ {
		if seg%2 == 1 {
			for k, c := range r.clients {
				c.spans = clientSpans[k]
			}
			r.spans.on.Store(true)
			first := seg == 1
			if first {
				r.wl.markTraced(true)
			}
			rec, el := r.phase(ctx, segment)
			if first {
				r.wl.markTraced(false)
			}
			r.spans.on.Store(false)
			for _, c := range r.clients {
				c.spans = nil
			}
			recT.merge(rec)
			elT += el
			continue
		}
		before, err := readCounters(ctx, r.d, r.wl.fsync())
		if err != nil {
			return nil, 0, nil, err
		}
		rec, el := r.phase(ctx, segment)
		after, err := readCounters(ctx, r.d, r.wl.fsync())
		if err != nil {
			return nil, 0, nil, err
		}
		delta.add(before, after)
		recU.merge(rec)
		elU += el
	}
	rep := r.rep
	rep.Counters = counterMetrics(delta, recU)
	rate := func(rec *recorder, el time.Duration) float64 {
		_, ok, _, _ := rec.totals()
		return float64(ok) / el.Seconds()
	}
	rep.Phases = map[string]phaseSummary{
		"untraced": {ElapsedS: elU.Seconds(), OpsPerS: rate(recU, elU)},
		"traced":   {ElapsedS: elT.Seconds(), OpsPerS: rate(recT, elT)},
	}
	spans := splitSpans(clientSpans, r.spans.log)
	name := fmt.Sprintf("spans-%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed)
	if err := writeSpans(filepath.Join(r.cfg.out, name), append(clientSpans, r.spans.log)...); err != nil {
		return nil, 0, nil, err
	}
	// The isolated calls run while the idle daemon still holds its heap,
	// so the collector paces them as it paced the daemon.
	var err error
	rep.Isolated, err = r.wl.isolate(ctx, r.work)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("isolated calls: %w", err)
	}
	layer, split := composeSplit(spans, rep.Isolated, rep.Counters)
	rep.Split = split
	for k, v := range rep.Counters {
		layer[k] = v
	}
	layer["bench.trace_overhead_ratio"] = ratio(rep.Phases["traced"].OpsPerS, rep.Phases["untraced"].OpsPerS)
	recU.merge(recT)
	return recU, elU + elT, layer, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// namedMetrics are the per-operation end-to-end figures of this
// workload, by the names the README's layer map uses: setup_s,
// ops_per_s, failed_ratio and heap_live_mb everywhere, and p50/p99 per
// operation the workload runs.
func namedMetrics(workload string, rep *report, values map[string]float64, attempted, failed int64) map[string]metric {
	out := map[string]metric{
		"setup_s":      {values["setup_s"], "s"},
		"ops_per_s":    {values["ops_per_s"], "ops/s"},
		"failed_ratio": {ratio(float64(failed), float64(attempted)), "fraction"},
		"heap_live_mb": {values["heap_live_mb"], "MB"},
	}
	ops := []op{opSolve}
	switch workload {
	case wlCampaign:
		ops = []op{opCreate, opObserve, opQuote, opFinish}
	case wlLoop:
		ops = []op{opObserve, opQuote}
	}
	for _, o := range ops {
		r := rep.Ops[o.String()]
		out[o.String()+"_p50_ms"] = metric{r.P50.MS, "ms"}
		out[o.String()+"_p99_ms"] = metric{r.Tail.MS, "ms"}
	}
	return out
}

// composeSplit assembles each op's split: the span-derived http part, the
// isolated in-daemon layers, and the residual.
func composeSplit(spans [numOps]spanSplit, iso, counters map[string]float64) (map[string]float64, map[string]splitReport) {
	layer := map[string]float64{}
	split := map[string]splitReport{}
	for o := op(0); o < numOps; o++ {
		name := o.String()
		sp := spans[o]
		parts := map[string]float64{"http": sp.HTTPMS}
		for _, l := range []string{"server", "engine", "campaign", "wal"} {
			if v, ok := iso[l+"."+name]; ok {
				parts[l] = v
			}
		}
		if o == opSolve {
			// The isolated core time is per solve; the request pays it once
			// per miss.
			parts["core"] = iso["core.solve"] * counters["engine.solves_per_op"]
		}
		sum := 0.0
		for l, v := range parts {
			sum += v
			layer[l+"."+name+"_ms"] = v
		}
		layer["total."+name+"_ms"] = sp.TotalMS
		if sp.N == 0 {
			for l := range parts {
				layer[l+"."+name+"_ms"] = 0
			}
			layer["unattributed."+name+"_ms"] = 0
			continue
		}
		un := sp.TotalMS - sum
		layer["unattributed."+name+"_ms"] = un
		split[name] = splitReport{N: sp.N, TotalMS: sp.TotalMS, Parts: parts, Unattributed: un, ResidualShare: un / sp.TotalMS}
	}
	return layer, split
}

func printReport(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "env: nproc=%d gomaxprocs=%d go=%s clients=%d connections=%d seed=%d op_stream_sha256=%s\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Clients, e.Connections, e.Seed, e.StreamHash)
	fmt.Fprintf(w, "setup_s runs: %v\n", rep.SetupS)
	names := make([]string, 0, len(rep.Ops))
	for n := range rep.Ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := rep.Ops[n]
		fmt.Fprintf(w, "op %-8s attempted=%d succeeded=%d failed=%d wrong=%d p50=%.4f ms (n=%d) p%.1f=%.4f ms (%d beyond) mean=%.4f ms\n",
			n, r.Attempted, r.Succeeded, r.Failed, r.Wrong, r.P50.MS, r.P50.N, r.Tail.Q*100, r.Tail.MS, r.Tail.Beyond, r.MeanMS)
	}
	printMetrics := func(title string, m map[string]metric) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s %s = %g %s\n", title, k, m[k].Value, m[k].Unit)
		}
	}
	printMetrics("named", rep.Named)
	ops := make([]string, 0, len(rep.Split))
	for n := range rep.Split {
		ops = append(ops, n)
	}
	sort.Strings(ops)
	for _, n := range ops {
		s := rep.Split[n]
		var parts []string
		for _, l := range []string{"http", "server", "engine", "core", "campaign", "wal"} {
			if v, ok := s.Parts[l]; ok {
				parts = append(parts, fmt.Sprintf("%s=%.4f", l, v))
			}
		}
		fmt.Fprintf(w, "split %-8s total=%.4f ms (n=%d) = %s + unattributed=%.4f (residual %.1f%%)\n",
			n, s.TotalMS, s.N, strings.Join(parts, " + "), s.Unattributed, 100*s.ResidualShare)
	}
	printMetrics("metric", rep.Metrics)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
