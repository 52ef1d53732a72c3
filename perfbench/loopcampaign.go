package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowdpricing/internal/core"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
	"crowdpricing/internal/wal"
)

// isolatedLoopCampaigns is how many of campaign-loop's campaigns the
// traced run replays, all loopSteps steps of each, against bare managers.
const isolatedLoopCampaigns = 16

// loopWorkload drives campaign-loop: set-up creates the campaigns, and
// the measured phase is the online loop alone — each client visits its
// own half of them in turn, one observe and one quote per visit, every
// quote checked against the reference policy as it arrives.
type loopWorkload struct {
	st      *stream
	bootDir string
	timer   *fsyncTimer
	// digests are the SHA-256 of each problem's reference solve, which the
	// set-up preview must match; prices are the reference policies, which
	// every quote must match.
	digests map[int][32]byte
	prices  map[int]*core.DeadlinePolicy
	// ids are the booted daemon's campaigns, in stream order; progress[k]
	// is client k's way through its own.
	ids      []string
	progress [clients]loopProgress
}

// loopProgress is one client's place in its campaigns, kept across the
// measured phases of a run.
type loopProgress struct {
	// first and n name the client's campaigns: sessions[first:first+n].
	first, n int
	// visits counts the client's visits so far; visit v is campaign v%n
	// at step v/n. A campaign visited past its loopSteps intervals runs
	// overdue: it keeps reporting the script's steps again, and the policy
	// quotes its last interval.
	visits int
	// remaining is each of its campaigns' tasks left.
	remaining []int
}

func newLoopWorkload(st *stream) *loopWorkload {
	return &loopWorkload{st: st}
}

// prepare solves every problem with Spec.Solve for the references.
func (w *loopWorkload) prepare(ctx context.Context, work string) error {
	w.bootDir = filepath.Join(work, "wal")
	refs, err := referenceSolves(ctx, w.st.problems, w.st.prepare)
	if err != nil {
		return err
	}
	w.digests = make(map[int][32]byte, len(refs))
	w.prices = make(map[int]*core.DeadlinePolicy, len(refs))
	for i, b := range refs {
		var pol core.DeadlinePolicy
		if err := json.Unmarshal(b, &pol); err != nil {
			return err
		}
		pol.Opt = nil // PriceAt reads Price and the problem only
		w.digests[i] = sha256.Sum256(b)
		w.prices[i] = &pol
	}
	return nil
}

// stage gives every boot an empty log directory.
func (w *loopWorkload) stage() error {
	if err := os.RemoveAll(w.bootDir); err != nil {
		return err
	}
	return os.MkdirAll(w.bootDir, 0o755)
}

func (w *loopWorkload) fsync() *fsyncTimer { return w.timer }

// boot starts a daemon on an empty log, previews (solves) every problem,
// then creates every campaign; each set-up answer is checked.
func (w *loopWorkload) boot(ctx context.Context, wrap wrapper) (*daemon, error) {
	w.timer = &fsyncTimer{FS: wal.DirFS{}}
	d, err := bootDaemon(w.bootDir, w.timer, wrap)
	if err != nil {
		return nil, err
	}
	err = warmUp(ctx, d, w.st.prepare, func(c *client, i int) error {
		p := &w.st.problems[i]
		resp, err := c.api.Solve(ctx, kinds.KindDeadline, p.spec)
		if err != nil {
			return err
		}
		if resp.Fingerprint != p.fp || resp.CacheHit || sha256.Sum256(resp.Result) != w.digests[i] {
			return fmt.Errorf("preview solve of problem %d: fingerprint %q cache_hit %v, want %q, a miss and the reference result",
				i, resp.Fingerprint, resp.CacheHit, p.fp)
		}
		return nil
	})
	if err == nil {
		err = w.createAll(ctx, d)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// createAll creates the campaigns and hands each client its share.
func (w *loopWorkload) createAll(ctx context.Context, d *daemon) error {
	all := make([]int, len(w.st.sessions))
	for k := range all {
		all[k] = k
	}
	ids := make([]string, len(all))
	var mu sync.Mutex
	err := warmUp(ctx, d, all, func(c *client, k int) error {
		p := &w.st.problems[w.st.sessions[k].problem]
		st, err := c.api.CreateCampaign(ctx, kinds.KindDeadline, p.spec, nil)
		if err != nil {
			return err
		}
		if st.Fingerprint != p.fp || !st.SolveCacheHit || st.Interval != 0 || len(st.Remaining) != 1 || st.Remaining[0] != p.spec.N {
			return fmt.Errorf("creating campaign %d: fingerprint %q cache_hit %v t=%d n=%v", k, st.Fingerprint, st.SolveCacheHit, st.Interval, st.Remaining)
		}
		mu.Lock()
		ids[k] = st.ID
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	w.ids = ids
	first := 0
	for k := range w.progress {
		n := len(w.st.sessions) / clients
		rem := make([]int, n)
		for j := range rem {
			rem[j] = w.st.problems[w.st.sessions[first+j].problem].spec.N
		}
		w.progress[k] = loopProgress{first: first, n: n, remaining: rem}
		first += n
	}
	return nil
}

func (w *loopWorkload) verifyBoot(context.Context, *daemon) error { return nil }

// markTraced is a no-op: the isolated calls replay whole campaigns.
func (w *loopWorkload) markTraced(bool) {}

// drive visits the client's campaigns in turn until deadline: observe the
// step's arrivals and completions, then quote, checking both.
func (w *loopWorkload) drive(ctx context.Context, c *client, deadline time.Time) {
	lp := &w.progress[c.idx]
	for time.Now().Before(deadline) {
		j, step := lp.visits%lp.n, lp.visits/lp.n
		lp.visits++
		k := lp.first + j
		s := &w.st.sessions[k]
		id := w.ids[k]
		arrivals, share := s.arrivals[step%loopSteps], s.shares[step%loopSteps]
		done := completions(lp.remaining[j], share)
		lp.remaining[j] -= done
		remaining := lp.remaining[j]

		var ob *server.CampaignState
		c.rec.begin(opObserve)
		d, err := c.call(ctx, opObserve, func(ctx context.Context) error {
			var err error
			ob, err = c.api.ObserveCampaign(ctx, id, arrivals, []int{done})
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
		if err != nil {
			c.rec.fail(opQuote, err)
			continue
		}
		want := w.prices[s.problem].PriceAt(remaining, step+1)
		switch {
		case q.Interval != step+1 || len(q.Remaining) != 1 || q.Remaining[0] != remaining || len(q.Prices) != 1 || q.Prices[0] != q.Price:
			c.rec.wrongAnswer(opQuote, fmt.Sprintf("quote at t=%d n=%v prices %v, want t=%d n=%d", q.Interval, q.Remaining, q.Prices, step+1, remaining))
		case q.Price != want:
			c.rec.wrongAnswer(opQuote, fmt.Sprintf("problem %d: quote %d at (n=%d, t=%d), reference %d", s.problem, q.Price, remaining, step+1, want))
		default:
			c.rec.ok(opQuote, d)
		}
	}
}

// verify has nothing left to check: the previews and creates were
// checked in set-up, the quotes as they arrived.
func (w *loopWorkload) verify(context.Context) (int, []string, error) { return 0, nil, nil }

func (w *loopWorkload) checked() int { return len(w.digests) + len(w.ids) }

// isolate replays the first campaigns of each client through
// isolateSessions.
func (w *loopWorkload) isolate(ctx context.Context, work string) (map[string]float64, error) {
	var sessions []session
	for k := 0; len(sessions) < isolatedLoopCampaigns; k++ {
		lp := &w.progress[k%clients]
		sessions = append(sessions, w.st.sessions[lp.first+k/clients])
	}
	return isolateSessions(ctx, work, w.st.problems, sessions)
}
