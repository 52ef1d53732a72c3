package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"crowdpricing/internal/bench"
	"crowdpricing/internal/dist"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
)

// Workload names, as passed to --workload.
const (
	wlCold     = "solve-cold"
	wlWarm     = "solve-warm"
	wlCampaign = "campaign"
	wlLoop     = "campaign-loop"
)

var workloads = []string{wlCold, wlWarm, wlCampaign, wlLoop}

// clients is the closed loop's size: two callers, one connection each.
const clients = 2

// Sizing of the generated streams. Every count is a property of the
// workload, never of the machine: equal seeds and run lengths give equal
// streams and equal op-stream hashes.
const (
	// warmSet is solve-warm's working set: small, solved during set-up.
	warmSet = 16
	// warmStream is the length of solve-warm's request cycle.
	warmStream = 4096
	// sessionProblems is the campaign session problem set: large against
	// the two in-flight sessions, so a create almost never finds its
	// policy table already interned.
	sessionProblems = 256
	// sessionStream is the length of the campaign session cycle.
	sessionStream = 4096
	// liveCampaigns and liveProblems shape the write-ahead log the
	// campaign daemon replays at boot.
	liveCampaigns = 2000
	liveProblems  = 64
	// campaignSteps is the observe+quote pairs per session.
	campaignSteps = bench.DefaultCampaignSteps
	// loopProblems and loopCampaigns are campaign-loop's problem set and
	// its campaigns, half of them visited by each client; loopSteps is the
	// length of each campaign's script: the paper's horizon of 72
	// intervals.
	loopProblems  = 64
	loopCampaigns = 4096
	loopSteps     = 72
)

// think is the mean of the seeded exponential pause a solve-cold client
// takes before each request, outside the timed call. (Go's timers rarely
// wake an idle process sooner than about a millisecond, so short draws
// pause longer.) Without it the two clients run with nearly equal
// periods and lock into phase for seconds at a time, either solving
// together (~16 ms a solve) or taking turns (~10 ms), so a run's figures
// depend on which lock it happened to fall into; independent requesters
// do not phase-lock. The pause also bounds how many requests a client
// can make however fast the daemon answers, which sizes solve-cold's
// stream (see maxVisits).
const think = time.Millisecond

// problem is one paper-scale deadline problem (N=200, 72 intervals) with
// its wire body (nil on solve-cold; see wire) and the fingerprint the
// daemon must answer with.
type problem struct {
	spec *kinds.DeadlineRequest
	body json.RawMessage
	fp   string
}

// wire is the problem's request body.
func (p *problem) wire() ([]byte, error) {
	if p.body != nil {
		return p.body, nil
	}
	return json.Marshal(p.spec)
}

// session is one campaign script: create on problem, then steps
// observe+quote pairs with the pre-drawn arrivals and completion shares,
// then finish.
type session struct {
	problem  int
	arrivals []float64
	shares   []float64
}

// stream is a workload's whole seeded input: the problems, what set-up
// solves, the measured op order, and (campaign) the replayed log's
// contents. Nothing in it depends on timing.
type stream struct {
	workload string
	seed     int64
	problems []problem
	// prepare lists the problems solved during set-up: the LRU fill
	// (solve-cold), the warm set (solve-warm), or the session problems
	// previewed before commit (campaign).
	prepare []int
	// solves is the measured solve order (solve-cold, solve-warm);
	// solve-cold's may not wrap, solve-warm's cycles.
	solves []int
	// sessions is the measured session order (campaign; cycles), or
	// campaign-loop's campaigns.
	sessions []session
	// live and liveProbs are the campaigns already running in the
	// replayed log and their problems, disjoint from the session problems.
	live      []session
	liveProbs []problem
	hash      string
}

// schedule draws deadline-only paper-scale requests from the shared
// load generator: count requests over a one-second window.
func schedule(seed int64, count, cardinality int, campaign bool) (*bench.Schedule, error) {
	cfg := bench.Config{
		Seed:        seed,
		Rate:        float64(count),
		Duration:    time.Second,
		Mix:         bench.Mix{kinds.KindDeadline: 1},
		Cardinality: cardinality,
		Size:        bench.SizePaper,
	}
	if campaign {
		cfg.Scenario = bench.ScenarioCampaign
		cfg.CampaignSteps = campaignSteps
	}
	return bench.GenerateSchedule(cfg)
}

// problemTable interns schedule requests by problem ID in first-seen
// order and fingerprints each body once.
type problemTable struct {
	problems []problem
	byID     map[int]int
	byFP     map[string]int
	// bodies keeps each problem's wire body; solve-cold's tens of
	// thousands of problems marshal theirs when needed instead.
	bodies bool
}

func newProblemTable() *problemTable {
	return &problemTable{byID: map[int]int{}, byFP: map[string]int{}, bodies: true}
}

func (t *problemTable) add(req *bench.Request) (int, error) {
	if i, ok := t.byID[req.ProblemID]; ok {
		return i, nil
	}
	spec, ok := req.Spec.(*kinds.DeadlineRequest)
	if !ok {
		return 0, fmt.Errorf("generator produced a %T, want a deadline request", req.Spec)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return 0, err
	}
	var body []byte
	if t.bodies {
		if body, err = json.Marshal(spec); err != nil {
			return 0, err
		}
	}
	i := len(t.problems)
	t.problems = append(t.problems, problem{spec: spec, body: body, fp: fp})
	t.byID[req.ProblemID] = i
	if _, dup := t.byFP[fp]; !dup {
		t.byFP[fp] = i
	}
	return i, nil
}

// generate builds the seeded stream for workload. seconds sizes
// solve-cold's stream of distinct problems, which may not wrap.
func generate(workload string, seed int64, seconds int) (*stream, error) {
	st := &stream{workload: workload, seed: seed}
	h := sha256.New()
	fmt.Fprintf(h, "perfbench/v2 %s seed=%d seconds=%d\n", workload, seed, seconds)
	switch workload {
	case wlCold:
		lruEntries := engine.DefaultCacheSize
		need := lruEntries
		for k := 0; k < clients; k++ {
			need += maxVisits(seed, k, seconds)
		}
		// The generator's problem IDs are uniform over the cardinality;
		// over 2^30 IDs tens of thousands of draws rarely repeat, and the
		// rare repeat is dropped below. The 10% headroom covers the Poisson
		// draw of the request count.
		sch, err := schedule(seed, need+need/10, 1<<30, false)
		if err != nil {
			return nil, err
		}
		h.Write([]byte(sch.Hash))
		tab := newProblemTable()
		tab.bodies = false
		var order []int
		for i := range sch.Requests {
			before := len(tab.problems)
			idx, err := tab.add(&sch.Requests[i])
			if err != nil {
				return nil, err
			}
			// Distinct IDs could still share a body; keep the first.
			if len(tab.problems) > before && tab.byFP[tab.problems[idx].fp] == idx {
				order = append(order, idx)
			}
		}
		if len(order) < need {
			return nil, fmt.Errorf("generator gave %d distinct problems, want %d", len(order), need)
		}
		st.problems = tab.problems
		st.prepare = order[:lruEntries]
		st.solves = order[lruEntries:need]
	case wlWarm:
		sch, err := schedule(seed, warmStream, warmSet, false)
		if err != nil {
			return nil, err
		}
		h.Write([]byte(sch.Hash))
		tab := newProblemTable()
		for i := range sch.Requests {
			idx, err := tab.add(&sch.Requests[i])
			if err != nil {
				return nil, err
			}
			st.solves = append(st.solves, idx)
		}
		st.problems = tab.problems
		for i := range st.problems {
			st.prepare = append(st.prepare, i)
		}
	case wlCampaign:
		sch, err := schedule(seed, sessionStream, sessionProblems, true)
		if err != nil {
			return nil, err
		}
		h.Write([]byte(sch.Hash))
		tab := newProblemTable()
		for i := range sch.Requests {
			req := &sch.Requests[i]
			idx, err := tab.add(req)
			if err != nil {
				return nil, err
			}
			st.sessions = append(st.sessions, session{problem: idx, arrivals: req.StepArrivals, shares: req.StepShares})
		}
		st.problems = tab.problems
		for i := range st.problems {
			st.prepare = append(st.prepare, i)
		}
		// The live campaigns come from a second, disjoint draw: a create
		// must find its session problem solved in the engine but not
		// interned by any live campaign.
		liveSch, err := schedule(seed^0x5eed1, liveCampaigns, liveProblems, true)
		if err != nil {
			return nil, err
		}
		h.Write([]byte(liveSch.Hash))
		lt := newProblemTable()
		for i := range liveSch.Requests {
			req := &liveSch.Requests[i]
			idx, err := lt.add(req)
			if err != nil {
				return nil, err
			}
			if _, clash := tab.byFP[lt.problems[idx].fp]; clash {
				continue
			}
			st.live = append(st.live, session{problem: idx, arrivals: req.StepArrivals, shares: req.StepShares})
		}
		st.liveProbs = lt.problems
	case wlLoop:
		need := loopCampaigns
		sch, err := bench.GenerateSchedule(bench.Config{
			Seed:          seed,
			Rate:          float64(need + need/4), // the count is a Poisson draw
			Duration:      time.Second,
			Mix:           bench.Mix{kinds.KindDeadline: 1},
			Cardinality:   loopProblems,
			Size:          bench.SizePaper,
			Scenario:      bench.ScenarioCampaign,
			CampaignSteps: loopSteps,
		})
		if err != nil {
			return nil, err
		}
		if len(sch.Requests) < need {
			return nil, fmt.Errorf("generator gave %d campaigns, want %d", len(sch.Requests), need)
		}
		h.Write([]byte(sch.Hash))
		tab := newProblemTable()
		for i := range sch.Requests[:need] {
			req := &sch.Requests[i]
			idx, err := tab.add(req)
			if err != nil {
				return nil, err
			}
			st.sessions = append(st.sessions, session{problem: idx, arrivals: req.StepArrivals, shares: req.StepShares})
		}
		st.problems = tab.problems
		for i := range st.problems {
			st.prepare = append(st.prepare, i)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	st.hash = st.digest(h)
	return st, nil
}

// digest folds the derived op stream — every problem fingerprint in use
// order and every session script — into h.
func (st *stream) digest(h interface {
	Write([]byte) (int, error)
	Sum([]byte) []byte
}) string {
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range st.problems {
		h.Write([]byte(p.fp))
	}
	for _, list := range [][]int{st.prepare, st.solves} {
		writeInt(len(list))
		for _, i := range list {
			writeInt(i)
		}
	}
	for _, list := range [][]session{st.sessions, st.live} {
		writeInt(len(list))
		for _, s := range list {
			writeInt(s.problem)
			for i := range s.arrivals {
				writeFloat(s.arrivals[i])
				writeFloat(s.shares[i])
			}
		}
	}
	for _, p := range st.liveProbs {
		h.Write([]byte(p.fp))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// thinkRNG is client idx's seeded source of think times.
func thinkRNG(seed int64, idx int) *dist.RNG {
	return dist.NewRNG(seed ^ int64(idx+1)*0x51ed)
}

// thinkTime draws the next pause.
func thinkTime(r *dist.RNG) time.Duration {
	return time.Duration(r.ExpFloat64() * float64(think))
}

// maxVisits bounds the solve-cold requests client idx can start in a
// run of seconds, even if every call took no
// time. A client checks its deadline, pauses, then starts a request, so
// the j-th start needs the first j−1 pauses to end before the deadline,
// and time.Sleep never returns early. The client's think RNG restarts at
// every measured phase: a --trace 0 run is one phase of seconds, a
// --trace 1 run four of a quarter each; the bound covers both.
func maxVisits(seed int64, idx int, seconds int) int {
	phase := func(dur time.Duration) int {
		r := thinkRNG(seed, idx)
		n := 1
		for sum := thinkTime(r); sum < dur; sum += thinkTime(r) {
			n++
		}
		return n
	}
	total := time.Duration(seconds) * time.Second
	return max(phase(total), 4*phase(total/4))
}

// completions turns a session step's completion share into the count the
// client reports, exactly as internal/bench's session target does.
func completions(remaining int, share float64) int {
	return int(float64(remaining) * share)
}
