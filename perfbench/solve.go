package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
)

// coldSampleEvery is the seeded sampling rate of solve-cold responses
// whose result digest is checked against a fresh reference solve after
// the measured phase.
const coldSampleEvery = 64

// solveWorkload drives solve-cold and solve-warm: POST /v1/solve/deadline
// in a closed loop, every answer checked.
type solveWorkload struct {
	st   *stream
	cold bool
	// refs maps a problem to its reference artifact from Spec.Solve
	// (solve-warm: the whole set, before set-up).
	refs map[int][]byte
	pos  cursor
	// traced marks where the traced phase starts in the stream, so the
	// isolated calls reuse exactly the inputs it solved.
	tracedFrom, tracedTo int

	mu      sync.Mutex
	samples map[int][32]byte // solve-cold stream position → result SHA-256
}

func newSolveWorkload(st *stream) *solveWorkload {
	return &solveWorkload{st: st, cold: st.workload == wlCold, refs: map[int][]byte{}, samples: map[int][32]byte{}}
}

func (w *solveWorkload) prepare(ctx context.Context, _ string) error {
	if w.cold {
		return nil
	}
	refs, err := referenceSolves(ctx, w.st.problems, w.st.prepare)
	if err != nil {
		return err
	}
	w.refs = refs
	return nil
}

// referenceSolves runs Spec.Solve on each listed problem.
func referenceSolves(ctx context.Context, ps []problem, idx []int) (map[int][]byte, error) {
	out := make(map[int][]byte, len(idx))
	var mu sync.Mutex
	_, err := timeCalls(len(idx), func(i int, _ func(string, time.Duration)) error {
		b, err := ps[idx[i]].spec.Solve(ctx)
		if err != nil {
			return fmt.Errorf("reference solve: %w", err)
		}
		mu.Lock()
		out[idx[i]] = b
		mu.Unlock()
		return nil
	})
	return out, err
}

func (w *solveWorkload) stage() error { return nil }

func (w *solveWorkload) verifyBoot(context.Context, *daemon) error { return nil }

func (w *solveWorkload) fsync() *fsyncTimer { return nil }

// boot starts a daemon and brings it to steady state: solve-cold fills the
// LRU with distinct problems, solve-warm solves its set. Every set-up
// answer is checked too.
func (w *solveWorkload) boot(ctx context.Context, wrap wrapper) (*daemon, error) {
	d, err := bootDaemon("", nil, wrap)
	if err != nil {
		return nil, err
	}
	err = warmUp(ctx, d, w.st.prepare, func(c *client, i int) error {
		p := &w.st.problems[i]
		resp, err := c.api.Solve(ctx, kinds.KindDeadline, p.spec)
		if err != nil {
			return err
		}
		if why := w.check(i, resp, false); why != "" {
			return fmt.Errorf("set-up solve: %s", why)
		}
		return nil
	})
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// check returns why resp is a wrong answer for problem i ("" if right).
func (w *solveWorkload) check(i int, resp *server.SolveResponse, hit bool) string {
	p := &w.st.problems[i]
	switch {
	case resp.Kind != kinds.KindDeadline:
		return fmt.Sprintf("kind %q", resp.Kind)
	case resp.Fingerprint != p.fp:
		return fmt.Sprintf("fingerprint %q, want %q", resp.Fingerprint, p.fp)
	case resp.CacheHit != hit:
		return fmt.Sprintf("cache_hit %v, want %v", resp.CacheHit, hit)
	}
	if ref, ok := w.refs[i]; ok && !bytes.Equal(resp.Result, ref) {
		return "result differs from the reference solve"
	}
	return ""
}

func (w *solveWorkload) markTraced(from bool) {
	if from {
		w.tracedFrom = int(w.pos.next.Load())
	} else {
		w.tracedTo = int(w.pos.next.Load())
	}
}

// drive runs one client's closed loop until deadline.
func (w *solveWorkload) drive(ctx context.Context, c *client, deadline time.Time) {
	think := thinkRNG(w.st.seed, c.idx)
	for time.Now().Before(deadline) {
		if w.cold {
			time.Sleep(thinkTime(think))
		}
		pos := w.pos.take()
		if w.cold && pos >= len(w.st.solves) {
			c.rec.begin(opSolve)
			c.rec.fail(opSolve, fmt.Errorf("solve-cold stream exhausted after %d distinct problems", len(w.st.solves)))
			return
		}
		i := w.st.solves[pos%len(w.st.solves)]
		p := &w.st.problems[i]
		var resp *server.SolveResponse
		c.rec.begin(opSolve)
		d, err := c.call(ctx, opSolve, func(ctx context.Context) error {
			var err error
			resp, err = c.api.Solve(ctx, kinds.KindDeadline, p.spec)
			return err
		})
		if err != nil {
			c.rec.fail(opSolve, err)
			continue
		}
		if why := w.check(i, resp, !w.cold); why != "" {
			c.rec.wrongAnswer(opSolve, why)
			continue
		}
		c.rec.ok(opSolve, d)
		if w.cold && sampled(w.st.seed, pos, coldSampleEvery) {
			sum := sha256.Sum256(resp.Result)
			w.mu.Lock()
			w.samples[pos] = sum
			w.mu.Unlock()
		}
	}
}

// verify checks the sampled solve-cold results against fresh reference
// solves and returns how many were wrong.
func (w *solveWorkload) verify(ctx context.Context) (int, []string, error) {
	if !w.cold {
		return 0, nil, nil
	}
	positions := make([]int, 0, len(w.samples))
	for pos := range w.samples {
		positions = append(positions, pos)
	}
	idx := make([]int, len(positions))
	for k, pos := range positions {
		idx[k] = w.st.solves[pos]
	}
	refs, err := referenceSolves(ctx, w.st.problems, idx)
	if err != nil {
		return 0, nil, err
	}
	wrong, notes := 0, []string(nil)
	for k, pos := range positions {
		if w.samples[pos] != sha256.Sum256(refs[idx[k]]) {
			wrong++
			notes = append(notes, fmt.Sprintf("solve at stream position %d: result differs from the reference solve", pos))
		}
	}
	return wrong, notes, nil
}

func (w *solveWorkload) checked() int { return len(w.samples) }

// cannedSpec is a real deadline spec whose Solve returns a given
// artifact at once: it drives the engine's miss path — validate,
// fingerprint, queue, worker hand-off, LRU insert and evict — with the
// core solver taken out.
type cannedSpec struct {
	*kinds.DeadlineRequest
	artifact []byte
}

func (c cannedSpec) Solve(context.Context) ([]byte, error) { return c.artifact, nil }

// isolate times the layers under the handler on the inputs the traced
// phase used: core (Spec.Solve, solve-cold only), the engine alone
// (cold: the miss path on a full LRU with the solver canned; warm: the hit
// path), and the server's request decode plus response encode.
func (w *solveWorkload) isolate(ctx context.Context, _ string) (map[string]float64, error) {
	if w.tracedTo <= w.tracedFrom {
		return nil, fmt.Errorf("the traced phase ran no solves")
	}
	limit := isolatedWarmSolves
	if w.cold {
		limit = isolatedColdSolves
	}
	var used []int
	for pos := w.tracedFrom; pos < w.tracedTo && len(used) < limit; pos++ {
		used = append(used, w.st.solves[pos%len(w.st.solves)])
	}
	out := map[string]float64{}
	artifacts := w.refs
	if w.cold {
		artifacts = make(map[int][]byte, len(used))
		var mu sync.Mutex
		sums, err := timeCalls(len(used), func(i int, add func(string, time.Duration)) error {
			start := time.Now()
			b, err := w.st.problems[used[i]].spec.Solve(ctx)
			add("core", time.Since(start))
			mu.Lock()
			artifacts[used[i]] = b
			mu.Unlock()
			return err
		})
		if err != nil {
			return nil, err
		}
		out["core.solve"] = perCall(sums["core"], len(used))
	}
	// Any artifact stands in for the fill's: the LRU holds byte slices.
	filler := artifacts[used[0]]
	eng := engine.New(engine.Options{})
	defer eng.Close()
	fill := w.st.prepare
	_, err := timeCalls(len(fill), func(i int, _ func(string, time.Duration)) error {
		art := filler
		if b, ok := artifacts[fill[i]]; ok {
			art = b
		}
		_, err := eng.Solve(ctx, cannedSpec{w.st.problems[fill[i]].spec, art})
		return err
	})
	if err != nil {
		return nil, err
	}
	sums, err := timeCalls(len(used), func(i int, add func(string, time.Duration)) error {
		p := &w.st.problems[used[i]]
		body, err := p.wire()
		if err != nil {
			return err
		}
		var spec engine.Spec = p.spec
		if w.cold {
			spec = cannedSpec{p.spec, artifacts[used[i]]}
		}
		start := time.Now()
		res, err := eng.Solve(ctx, spec)
		add("engine", time.Since(start))
		if err != nil {
			return err
		}
		if res.CacheHit == w.cold {
			return fmt.Errorf("isolated engine: cache_hit %v on %s", res.CacheHit, w.st.workload)
		}
		start = time.Now()
		err = serverCodec(body, new(kinds.DeadlineRequest), &server.SolveResponse{
			Kind: kinds.KindDeadline, Fingerprint: p.fp, CacheHit: res.CacheHit,
			SolveMillis: res.SolveMillis, Result: artifacts[used[i]],
		})
		add("server", time.Since(start))
		return err
	})
	if err != nil {
		return nil, err
	}
	out["engine.solve"] = perCall(sums["engine"], len(used))
	out["server.solve"] = perCall(sums["server"], len(used))
	return out, nil
}

// Isolated-call counts: enough calls for a steady mean, few enough that
// the traced run stays short (a cold core solve costs ~10 ms).
const (
	isolatedColdSolves = 32
	isolatedWarmSolves = 512
)

// serverCodec is the server layer's own work on one request, as its
// handlers do it: strict JSON decode of the body (nil body: none) and
// JSON encode of the response.
func serverCodec(body []byte, into any, resp any) error {
	if body != nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			return err
		}
	}
	return json.NewEncoder(io.Discard).Encode(resp)
}

// warmUp runs fn over the listed problems on fresh clients of d, as many
// as the measured phase runs, and closes them.
func warmUp(ctx context.Context, d *daemon, idx []int, fn func(c *client, i int) error) error {
	cs := make([]*client, clients)
	for k := range cs {
		cs[k] = newClient(k, d.base)
	}
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	var (
		next  cursor
		mu    sync.Mutex
		first error
	)
	runClients(cs, func(c *client) {
		for {
			k := next.take()
			if k >= len(idx) {
				return
			}
			if err := fn(c, idx[k]); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
				return
			}
		}
	})
	return first
}

// sampled is the seeded 1-in-every sample over stream positions.
func sampled(seed int64, pos, every int) bool {
	return splitmix(uint64(seed)^uint64(pos)*0x9e3779b97f4a7c15)%uint64(every) == 0
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
