package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crowdpricing/internal/campaign"
	"crowdpricing/internal/core"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
	"crowdpricing/internal/wal"
)

// restartSample is how many replayed campaigns are quoted before and
// after the restart.
const restartSample = 32

// isolatedSessions is how many sessions the traced run replays against
// bare campaign managers to split the campaign, engine and WAL layers.
const isolatedSessions = 96

// quoteRec is one quote the daemon served, kept for the check against
// the reference policy after the measured phase.
type quoteRec struct {
	problem   int32
	remaining int32
	interval  int32
	price     int32
}

// restartQuote is a replayed campaign's quote before the restart.
type restartQuote struct {
	id        string
	price     int
	interval  int
	remaining int
}

// campaignWorkload drives campaign sessions against a daemon restarted
// from a log of live campaigns.
type campaignWorkload struct {
	st      *stream
	fixture string
	bootDir string
	timer   *fsyncTimer
	restart []restartQuote
	// previews holds the SHA-256 of each session problem's set-up solve,
	// checked against the reference solve after the run.
	previews map[int][32]byte
	pos      cursor

	tracedFrom, tracedTo int

	mu     sync.Mutex
	quotes []quoteRec
}

func newCampaignWorkload(st *stream) *campaignWorkload {
	return &campaignWorkload{st: st}
}

// prepare writes the log the daemon restarts from: every live campaign
// created, part-way observed, through a bare manager's WAL, and a seeded
// sample of them quoted before the "restart".
func (w *campaignWorkload) prepare(ctx context.Context, work string) error {
	w.fixture = filepath.Join(work, "wal-fixture")
	w.bootDir = filepath.Join(work, "wal")
	eng := engine.New(engine.Options{})
	defer eng.Close()
	m := campaign.NewManager(eng, nil, campaign.Options{})
	defer m.Close()
	wlog, err := m.OpenWAL(w.fixture, wal.Options{})
	if err != nil {
		return err
	}
	if _, err := m.ReplayWAL(ctx, wlog); err != nil {
		wlog.Close()
		return err
	}
	m.AttachWAL(wlog)
	ids := make([]string, len(w.st.live))
	for k, s := range w.st.live {
		p := &w.st.liveProbs[s.problem]
		st, err := m.Create(ctx, kinds.KindDeadline, p.body, nil)
		if err != nil {
			wlog.Close()
			return fmt.Errorf("creating live campaign %d: %w", k, err)
		}
		ids[k] = st.ID
		remaining := p.spec.N
		for step := 0; step < k%4; step++ {
			done := completions(remaining, s.shares[step])
			remaining -= done
			if _, err := m.Observe(st.ID, s.arrivals[step], []int{done}); err != nil {
				wlog.Close()
				return err
			}
		}
	}
	every := max(1, len(ids)/restartSample)
	for k := range ids {
		if !sampled(w.st.seed, k, every) || len(w.restart) == restartSample {
			continue
		}
		q, err := m.Quote(ids[k])
		if err != nil {
			wlog.Close()
			return err
		}
		w.restart = append(w.restart, restartQuote{id: ids[k], price: q.Price, interval: q.Interval, remaining: q.Remaining[0]})
	}
	if err := wlog.Close(); err != nil {
		return err
	}
	if len(w.restart) == 0 {
		return fmt.Errorf("no replayed campaign sampled for the restart check")
	}
	return nil
}

// stage lays down a fresh copy of the log, so every boot replays the same
// records; it runs before the set-up clock starts.
func (w *campaignWorkload) stage() error { return copyDir(w.fixture, w.bootDir) }

func (w *campaignWorkload) fsync() *fsyncTimer { return w.timer }

// boot is the daemon restart: construct, open and replay the log, attach
// it, serve, then solve every session problem once (the preview that
// precedes commit), so the measured creates are engine hits.
func (w *campaignWorkload) boot(ctx context.Context, wrap wrapper) (*daemon, error) {
	w.timer = &fsyncTimer{FS: wal.DirFS{}}
	d, err := bootDaemon(w.bootDir, w.timer, wrap)
	if err != nil {
		return nil, err
	}
	previews := make(map[int][32]byte, len(w.st.prepare))
	var mu sync.Mutex
	err = warmUp(ctx, d, w.st.prepare, func(c *client, i int) error {
		p := &w.st.problems[i]
		resp, err := c.api.Solve(ctx, kinds.KindDeadline, p.spec)
		if err != nil {
			return err
		}
		if resp.Fingerprint != p.fp || resp.CacheHit {
			return fmt.Errorf("preview solve: fingerprint %q cache_hit %v, want %q and a miss", resp.Fingerprint, resp.CacheHit, p.fp)
		}
		sum := sha256.Sum256(resp.Result)
		mu.Lock()
		previews[i] = sum
		mu.Unlock()
		return nil
	})
	if err != nil {
		d.close()
		return nil, err
	}
	w.previews = previews
	return d, nil
}

// verifyBoot checks that the sampled replayed campaigns quote what they
// quoted before the restart.
func (w *campaignWorkload) verifyBoot(ctx context.Context, d *daemon) error {
	c := newClient(0, d.base)
	defer c.close()
	for _, want := range w.restart {
		q, err := c.api.CampaignPrice(ctx, want.id)
		if err != nil {
			return fmt.Errorf("quoting replayed campaign %s: %w", want.id, err)
		}
		if q.Price != want.price || q.Interval != want.interval || q.Remaining[0] != want.remaining {
			return fmt.Errorf("replayed campaign %s quotes %d at (t=%d, n=%v), before the restart %d at (t=%d, n=%d)",
				want.id, q.Price, q.Interval, q.Remaining, want.price, want.interval, want.remaining)
		}
	}
	return nil
}

func (w *campaignWorkload) markTraced(from bool) {
	if from {
		w.tracedFrom = int(w.pos.next.Load())
	} else {
		w.tracedTo = int(w.pos.next.Load())
	}
}

// drive runs whole sessions until deadline: create → steps×(observe,
// quote) → finish. A session under way when the deadline passes runs to
// its finish.
func (w *campaignWorkload) drive(ctx context.Context, c *client, deadline time.Time) {
	var local []quoteRec
	for time.Now().Before(deadline) {
		s := w.st.sessions[w.pos.take()%len(w.st.sessions)]
		local = w.session(ctx, c, s, local)
	}
	w.mu.Lock()
	w.quotes = append(w.quotes, local...)
	w.mu.Unlock()
}

func (w *campaignWorkload) session(ctx context.Context, c *client, s session, quotes []quoteRec) []quoteRec {
	p := &w.st.problems[s.problem]
	var st *server.CampaignState
	c.rec.begin(opCreate)
	d, err := c.call(ctx, opCreate, func(ctx context.Context) error {
		var err error
		st, err = c.api.CreateCampaign(ctx, kinds.KindDeadline, p.spec, nil)
		return err
	})
	if err != nil {
		c.rec.fail(opCreate, err)
		return quotes
	}
	switch {
	case st.Fingerprint != p.fp:
		c.rec.wrongAnswer(opCreate, fmt.Sprintf("fingerprint %q, want %q", st.Fingerprint, p.fp))
	case !st.SolveCacheHit:
		c.rec.wrongAnswer(opCreate, "policy was solved at create; the preview should have cached it")
	case st.Interval != 0 || len(st.Remaining) != 1 || st.Remaining[0] != p.spec.N:
		c.rec.wrongAnswer(opCreate, fmt.Sprintf("initial state t=%d n=%v", st.Interval, st.Remaining))
	default:
		c.rec.ok(opCreate, d)
	}
	id := st.ID
	remaining := p.spec.N
	for step := range s.arrivals {
		done := completions(remaining, s.shares[step])
		remaining -= done
		var ob *server.CampaignState
		c.rec.begin(opObserve)
		d, err := c.call(ctx, opObserve, func(ctx context.Context) error {
			var err error
			ob, err = c.api.ObserveCampaign(ctx, id, s.arrivals[step], []int{done})
			return err
		})
		switch {
		case err != nil:
			c.rec.fail(opObserve, err)
		case ob.Interval != step+1 || len(ob.Remaining) != 1 || ob.Remaining[0] != remaining:
			c.rec.wrongAnswer(opObserve, fmt.Sprintf("state t=%d n=%v, want t=%d n=%d", ob.Interval, ob.Remaining, step+1, remaining))
		default:
			c.rec.ok(opObserve, d)
		}
		var q *server.CampaignQuote
		c.rec.begin(opQuote)
		d, err = c.call(ctx, opQuote, func(ctx context.Context) error {
			var err error
			q, err = c.api.CampaignPrice(ctx, id)
			return err
		})
		switch {
		case err != nil:
			c.rec.fail(opQuote, err)
		case q.Interval != step+1 || len(q.Remaining) != 1 || q.Remaining[0] != remaining ||
			len(q.Prices) != 1 || q.Prices[0] != q.Price:
			c.rec.wrongAnswer(opQuote, fmt.Sprintf("quote at t=%d n=%v prices %v, want t=%d n=%d", q.Interval, q.Remaining, q.Prices, step+1, remaining))
		default:
			c.rec.ok(opQuote, d)
			quotes = append(quotes, quoteRec{int32(s.problem), int32(remaining), int32(step + 1), int32(q.Price)})
		}
	}
	var sum *server.CampaignSummary
	c.rec.begin(opFinish)
	d, err = c.call(ctx, opFinish, func(ctx context.Context) error {
		var err error
		sum, err = c.api.FinishCampaign(ctx, id)
		return err
	})
	switch {
	case err != nil:
		c.rec.fail(opFinish, err)
	case sum.Intervals != len(s.arrivals) || len(sum.Remaining) != 1 || sum.Remaining[0] != remaining:
		c.rec.wrongAnswer(opFinish, fmt.Sprintf("summary t=%d n=%v, want t=%d n=%d", sum.Intervals, sum.Remaining, len(s.arrivals), remaining))
	default:
		c.rec.ok(opFinish, d)
	}
	return quotes
}

// verify solves every session problem with Spec.Solve, checks the
// set-up preview was byte-equal to it, and checks every quote served
// against core.DeadlinePolicy.PriceAt of that reference policy.
func (w *campaignWorkload) verify(ctx context.Context) (int, []string, error) {
	byProblem := make(map[int][]quoteRec)
	for _, q := range w.quotes {
		byProblem[int(q.problem)] = append(byProblem[int(q.problem)], q)
	}
	var (
		mu    sync.Mutex
		wrong int
		notes []string
	)
	bad := func(msg string) {
		mu.Lock()
		wrong++
		if len(notes) < 8 {
			notes = append(notes, msg)
		}
		mu.Unlock()
	}
	idx := w.st.prepare
	_, err := timeCalls(len(idx), func(k int, _ func(string, time.Duration)) error {
		i := idx[k]
		ref, err := w.st.problems[i].spec.Solve(ctx)
		if err != nil {
			return err
		}
		if sha256.Sum256(ref) != w.previews[i] {
			bad(fmt.Sprintf("problem %d: preview solve differs from the reference solve", i))
		}
		var pol core.DeadlinePolicy
		if err := json.Unmarshal(ref, &pol); err != nil {
			return err
		}
		for _, q := range byProblem[i] {
			if want := pol.PriceAt(int(q.remaining), int(q.interval)); want != int(q.price) {
				bad(fmt.Sprintf("problem %d: quote %d at (n=%d, t=%d), reference %d", i, q.price, q.remaining, q.interval, want))
			}
		}
		return nil
	})
	return wrong, notes, err
}

func (w *campaignWorkload) checked() int { return len(w.quotes) + len(w.previews) + len(w.restart) }

// timedSolver is the engine seen through campaign.Solver, timing every
// call the manager makes into it.
type timedSolver struct {
	e     *engine.Engine
	nanos atomic.Int64
}

func (t *timedSolver) Solve(ctx context.Context, spec engine.Spec) (*engine.Result, error) {
	start := time.Now()
	res, err := t.e.Solve(ctx, spec)
	t.nanos.Add(int64(time.Since(start)))
	return res, err
}

// isolate replays the traced phase's first sessions through
// isolateSessions.
func (w *campaignWorkload) isolate(ctx context.Context, work string) (map[string]float64, error) {
	n := w.tracedTo - w.tracedFrom
	if n <= 0 {
		return nil, fmt.Errorf("the traced phase ran no sessions")
	}
	if n > isolatedSessions {
		n = isolatedSessions
	}
	sessions := make([]session, n)
	for k := range sessions {
		sessions[k] = w.st.sessions[(w.tracedFrom+k)%len(w.st.sessions)]
	}
	return isolateSessions(ctx, work, w.st.problems, sessions)
}

// isolateSessions replays sessions against a bare campaign manager
// writing its own WAL, on an engine seen through campaign.Solver, and
// times every call: the engine calls, the manager calls, and — replayed
// from the records that manager logged — each record's wal.Log.Append,
// plus the server's decode and encode of the same bodies. The campaign
// layer is the manager's time less the engine and WAL parts.
func isolateSessions(ctx context.Context, work string, problems []problem, sessions []session) (map[string]float64, error) {
	n := len(sessions)
	eng := engine.New(engine.Options{})
	defer eng.Close()
	// Solve the session problems first, as the daemon's preview did.
	_, err := timeCalls(n, func(k int, _ func(string, time.Duration)) error {
		_, err := eng.Solve(ctx, problems[sessions[k].problem].spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	solver := &timedSolver{e: eng}
	m := campaign.NewManager(solver, nil, campaign.Options{})
	defer m.Close()
	logDir := filepath.Join(work, "wal-isolated")
	if err := os.RemoveAll(logDir); err != nil {
		return nil, err
	}
	wlog, err := m.OpenWAL(logDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := m.ReplayWAL(ctx, wlog); err != nil {
		wlog.Close()
		return nil, err
	}
	m.AttachWAL(wlog)
	mgr, err := timeCalls(n, func(k int, add func(string, time.Duration)) error {
		return isolatedSession(ctx, m, &problems[sessions[k].problem], sessions[k], add)
	})
	if cerr := wlog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	walMS, err := isolateAppends(logDir, filepath.Join(work, "wal-appends"))
	if err != nil {
		return nil, err
	}
	steps := len(sessions[0].arrivals)
	calls := func(o op) int {
		if o == opObserve || o == opQuote {
			return n * steps
		}
		return n
	}
	engineCreate := perCall(time.Duration(solver.nanos.Load()), n)
	out := map[string]float64{"engine.create": engineCreate}
	for _, o := range []op{opCreate, opObserve, opQuote, opFinish} {
		name := o.String()
		v := perCall(mgr[name], calls(o)) - walMS[name]
		if o == opCreate {
			v -= engineCreate
		}
		out["campaign."+name] = v
		if o != opQuote {
			out["wal."+name] = walMS[name]
		}
	}
	// The codec pass needs replies only; a manager without a log gives them.
	bare := campaign.NewManager(eng, nil, campaign.Options{})
	defer bare.Close()
	codec, err := isolateCodec(ctx, bare, problems, sessions)
	if err != nil {
		return nil, err
	}
	for o := range codec {
		out["server."+o.String()] = perCall(codec[o], calls(o))
	}
	return out, nil
}

// isolateAppends reads back the records a manager logged in src and
// times wal.Log.Append of each into a fresh log at dst, on one goroutine
// per client; it returns the mean per record, by the op that logged it.
func isolateAppends(src, dst string) (map[string]float64, error) {
	var recs []wal.Record
	if err := wal.NewReader(wal.DirFS{}, src).Replay(func(r wal.Record) error {
		recs = append(recs, wal.Record{Type: r.Type, Data: append([]byte(nil), r.Data...)})
		return nil
	}); err != nil {
		return nil, err
	}
	byType := map[byte]string{
		campaign.WALRecordCreate:  opCreate.String(),
		campaign.WALRecordObserve: opObserve.String(),
		campaign.WALRecordFinish:  opFinish.String(),
	}
	counts := map[string]int{}
	for _, r := range recs {
		name, ok := byType[r.Type]
		if !ok {
			return nil, fmt.Errorf("isolated log holds a %s record", campaign.WALRecordName(r.Type))
		}
		counts[name]++
	}
	l, err := wal.Open(dst, wal.Options{})
	if err != nil {
		return nil, err
	}
	sums, err := timeCalls(len(recs), func(i int, add func(string, time.Duration)) error {
		start := time.Now()
		_, err := l.Append(recs[i].Type, recs[i].Data)
		add(byType[recs[i].Type], time.Since(start))
		return err
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for name, c := range counts {
		out[name] = perCall(sums[name], c)
	}
	return out, nil
}

// isolatedSession runs one session on m, adding each op's manager time
// under the op's name.
func isolatedSession(ctx context.Context, m *campaign.Manager, p *problem, s session, add func(string, time.Duration)) error {
	start := time.Now()
	st, err := m.Create(ctx, kinds.KindDeadline, p.body, nil)
	add("create", time.Since(start))
	if err != nil {
		return err
	}
	remaining := p.spec.N
	for step := range s.arrivals {
		done := completions(remaining, s.shares[step])
		remaining -= done
		start = time.Now()
		_, err := m.Observe(st.ID, s.arrivals[step], []int{done})
		add("observe", time.Since(start))
		if err != nil {
			return err
		}
		start = time.Now()
		_, err = m.Quote(st.ID)
		add("quote", time.Since(start))
		if err != nil {
			return err
		}
	}
	start = time.Now()
	_, err = m.Finish(st.ID)
	add("finish", time.Since(start))
	return err
}

// isolateCodec times the server layer's request decode and response
// encode for every op of the sessions, on the bodies and replies the
// bare manager produces for them; it returns the summed time per op.
func isolateCodec(ctx context.Context, m *campaign.Manager, problems []problem, sessions []session) (map[op]time.Duration, error) {
	sums, err := timeCalls(len(sessions), func(k int, add func(string, time.Duration)) error {
		s := sessions[k]
		p := &problems[s.problem]
		body, err := json.Marshal(server.CreateCampaignRequest{Kind: kinds.KindDeadline, Request: p.body})
		if err != nil {
			return err
		}
		st, err := m.Create(ctx, kinds.KindDeadline, p.body, nil)
		if err != nil {
			return err
		}
		start := time.Now()
		err = serverCodec(body, new(server.CreateCampaignRequest), st)
		add(opCreate.String(), time.Since(start))
		if err != nil {
			return err
		}
		remaining := p.spec.N
		for step := range s.arrivals {
			done := completions(remaining, s.shares[step])
			remaining -= done
			obBody, err := json.Marshal(server.CampaignObserveRequest{Arrivals: s.arrivals[step], Completed: []int{done}})
			if err != nil {
				return err
			}
			ob, err := m.Observe(st.ID, s.arrivals[step], []int{done})
			if err != nil {
				return err
			}
			start = time.Now()
			err = serverCodec(obBody, new(server.CampaignObserveRequest), ob)
			add(opObserve.String(), time.Since(start))
			if err != nil {
				return err
			}
			q, err := m.Quote(st.ID)
			if err != nil {
				return err
			}
			start = time.Now()
			err = serverCodec(nil, nil, q)
			add(opQuote.String(), time.Since(start))
			if err != nil {
				return err
			}
		}
		sum, err := m.Finish(st.ID)
		if err != nil {
			return err
		}
		start = time.Now()
		err = serverCodec(nil, nil, sum)
		add(opFinish.String(), time.Since(start))
		return err
	})
	if err != nil {
		return nil, err
	}
	out := map[op]time.Duration{}
	for _, o := range []op{opCreate, opObserve, opQuote, opFinish} {
		out[o] = sums[o.String()]
	}
	return out, nil
}
