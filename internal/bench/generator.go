// Package bench is the load-generation and continuous-benchmark harness for
// the pricing daemon: it replays NHPP-scheduled pricing requests (the
// paper's Section 5 arrival model) against internal/server, measures
// coordinated-omission-safe latency into the shared internal/hdr
// histogram, and emits machine-readable reports that CI diffs run-over-run.
//
// The workload is kind-generic: problem kinds and their body generators
// come from the engine's kind registry (internal/kinds), so a newly
// registered kind is load-testable by naming it in the Mix — no generator
// changes. The pipeline is generator → runner → report → compare:
//
//   - GenerateSchedule turns a Config (seed, rate, mix, fingerprint
//     cardinality, problem size) into a deterministic open-loop request
//     schedule: every arrival time, problem kind, and problem body is a pure
//     function of the seed.
//   - Run fires the schedule at an in-process or remote HTTP target,
//     timing each request from its *scheduled* start so queueing delay is
//     charged to latency (no coordinated omission). Intentional backpressure
//     (HTTP 429 shedding) is accounted separately from errors.
//   - BuildReport summarizes the run (percentiles, throughput, error and
//     rejection rates, cache hit ratio, per-endpoint breakdown) as JSON + a
//     human table.
//   - Compare diffs two reports metric-by-metric against a regression
//     threshold, the basis for the CI exit code.
package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"crowdpricing/internal/campaign"
	"crowdpricing/internal/dist"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/nhpp"
	"crowdpricing/internal/rate"
)

// Size selects the generated problem scale. Larger sizes stress the solver;
// smaller sizes stress the HTTP/cache path.
type Size string

// Problem scales.
const (
	// SizeSmall solves in well under a millisecond cold — the right scale
	// for cache/transport benchmarks and the CI smoke run.
	SizeSmall Size = "small"
	// SizeMedium is an intermediate scale.
	SizeMedium Size = "medium"
	// SizePaper matches the paper's experiments (N=200, 72 intervals):
	// cold solves take milliseconds, so the cache hit-rate dial dominates
	// throughput.
	SizePaper Size = "paper"
)

// Shape selects the arrival-rate profile of the NHPP schedule.
type Shape string

// Arrival shapes.
const (
	// ShapeConstant is a homogeneous Poisson process at Config.Rate.
	ShapeConstant Shape = "constant"
	// ShapeDiurnal modulates Config.Rate with a ±60% sinusoid over the run
	// window — a compressed version of the day/night cycle the paper
	// estimates from mturk-tracker traffic (GaoP14 §5.2).
	ShapeDiurnal Shape = "diurnal"
)

// Scenario selects the workload shape.
type Scenario string

// Workload scenarios.
const (
	// ScenarioSolve is the stateless open-loop mix: every scheduled
	// request is one POST /v1/solve/{kind}. The default.
	ScenarioSolve Scenario = "solve"
	// ScenarioCampaign is the stateful lifecycle workload: every scheduled
	// arrival starts a campaign session — create, then CampaignSteps
	// observe+quote pairs, then finish — so one schedule entry drives
	// 2·CampaignSteps+2 HTTP operations against the campaign API. Latency
	// is measured per session (scheduled start to finish), per kind of the
	// underlying problem.
	ScenarioCampaign Scenario = "campaign"
)

// DefaultCampaignSteps is the observe/quote pairs per campaign session.
const DefaultCampaignSteps = 8

// Mix weights the problem kinds in the generated workload, keyed by
// registry kind name. Weights are relative; they need not sum to 1. Kinds
// absent from the map weigh 0; an empty or nil Mix defaults to DefaultMix.
// Any kind registered with the engine registry is addressable — adding a
// kind to the service makes it load-testable with no change here.
type Mix map[string]float64

// DefaultMix leans on the deadline solver (the expensive one) while keeping
// the static solvers in the mix, mirroring the paper's emphasis.
var DefaultMix = Mix{
	kinds.KindDeadline: 0.5,
	kinds.KindBudget:   0.3,
	kinds.KindTradeoff: 0.2,
}

// sortedKinds returns the mix's kind names in ascending order, so every
// walk over the mix — and every float accumulation along it — is
// deterministic for a given mix.
func (m Mix) sortedKinds() []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func (m Mix) total() float64 {
	sum := 0.0
	// Sorted walk: float addition is order-sensitive, and total() feeds the
	// normalized weights that drive seeded kind selection.
	for _, k := range m.sortedKinds() {
		sum += m[k]
	}
	return sum
}

func (m Mix) clone() Mix {
	out := make(Mix, len(m))
	for k, w := range m {
		out[k] = w
	}
	return out
}

// Config parameterizes schedule generation. All randomness derives from
// Seed: equal configs generate byte-identical schedules.
type Config struct {
	// Seed drives every random draw (arrival times, kind picks, problem
	// bodies).
	Seed int64 `json:"seed"`
	// Rate is the mean arrival rate in requests per second.
	Rate float64 `json:"rate_rps"`
	// Duration is the measurement window; Warmup precedes it and is
	// excluded from statistics.
	Duration time.Duration `json:"duration_ns"`
	Warmup   time.Duration `json:"warmup_ns"`
	// Mix weights the problem kinds by registry name (empty = DefaultMix).
	Mix Mix `json:"mix"`
	// Cardinality is the number of distinct problems per kind — the cache
	// hit-rate dial. With R total requests of a kind, the expected steady
	// state hit ratio approaches 1 − cardinality/R.
	Cardinality int `json:"cardinality"`
	// Size selects the problem scale (default SizeSmall).
	Size Size `json:"size"`
	// Shape selects the arrival profile (default ShapeConstant).
	Shape Shape `json:"shape"`
	// Scenario selects stateless solves or stateful campaign sessions
	// (default ScenarioSolve).
	Scenario Scenario `json:"scenario"`
	// CampaignSteps is the observe/quote pairs per campaign session
	// (campaign scenario only; 0 = DefaultCampaignSteps).
	CampaignSteps int `json:"campaign_steps,omitempty"`
	// CampaignAdaptive runs every campaign session in §5.2.5 adaptive mode
	// (deadline kinds only — the generator rejects mixes it cannot serve).
	CampaignAdaptive bool `json:"campaign_adaptive,omitempty"`
	// CampaignDedup is the fraction of campaign sessions redirected onto one
	// shared problem body per kind (campaign scenario only; 0 = every session
	// draws from the full Cardinality). High values model many tenants
	// pricing the same batch — the regime the server's quoter live set
	// collapses to one shared policy artifact.
	CampaignDedup float64 `json:"campaign_dedup,omitempty"`
}

func (c *Config) normalized() (Config, error) {
	out := *c
	if out.Rate <= 0 {
		return out, fmt.Errorf("bench: rate must be positive, got %v", out.Rate)
	}
	if out.Duration <= 0 {
		return out, fmt.Errorf("bench: duration must be positive, got %v", out.Duration)
	}
	if out.Warmup < 0 {
		return out, fmt.Errorf("bench: negative warmup %v", out.Warmup)
	}
	switch out.Scenario {
	case "":
		out.Scenario = ScenarioSolve
	case ScenarioSolve, ScenarioCampaign:
	default:
		return out, fmt.Errorf("bench: unknown scenario %q (want %q or %q)", out.Scenario, ScenarioSolve, ScenarioCampaign)
	}
	if out.Scenario == ScenarioCampaign {
		if out.CampaignSteps <= 0 {
			out.CampaignSteps = DefaultCampaignSteps
		}
	} else if out.CampaignSteps != 0 || out.CampaignAdaptive || out.CampaignDedup != 0 {
		return out, fmt.Errorf("bench: campaign knobs set on the %q scenario", out.Scenario)
	}
	if out.CampaignDedup < 0 || out.CampaignDedup > 1 {
		return out, fmt.Errorf("bench: campaign dedup fraction %v outside [0, 1]", out.CampaignDedup)
	}
	if len(out.Mix) == 0 {
		if out.Scenario == ScenarioCampaign {
			// The default solve mix includes budget, which has no campaign
			// runtime; campaigns default to the paper's headline deadline
			// workload.
			out.Mix = Mix{kinds.KindDeadline: 1}
		} else {
			out.Mix = DefaultMix.clone()
		}
	}
	// Sorted walk so a mix with several problems reports the same first
	// error on every run.
	for _, kind := range out.Mix.sortedKinds() {
		w := out.Mix[kind]
		def, ok := registry().Lookup(kind)
		if !ok {
			return out, fmt.Errorf("bench: mix names unknown kind %q (registered: %v)", kind, Kinds)
		}
		if def.Sample == nil {
			return out, fmt.Errorf("bench: kind %q has no workload sampler", kind)
		}
		if w < 0 {
			return out, fmt.Errorf("bench: negative mix weight %v for %q", w, kind)
		}
		if out.Scenario == ScenarioCampaign && w > 0 {
			if !campaign.SupportsKind(kind) {
				return out, fmt.Errorf("bench: kind %q has no campaign runtime (static allocation, no price table)", kind)
			}
			if out.CampaignAdaptive && kind != kinds.KindDeadline {
				return out, fmt.Errorf("bench: adaptive campaigns require the deadline kind, mix names %q", kind)
			}
		}
	}
	if out.Mix.total() <= 0 {
		return out, fmt.Errorf("bench: mix weights must have a positive sum, got %+v", out.Mix)
	}
	if out.Cardinality <= 0 {
		out.Cardinality = 16
	}
	switch out.Size {
	case "":
		out.Size = SizeSmall
	case SizeSmall, SizeMedium, SizePaper:
	default:
		return out, fmt.Errorf("bench: unknown size %q (want %q, %q, or %q)", out.Size, SizeSmall, SizeMedium, SizePaper)
	}
	switch out.Shape {
	case "":
		out.Shape = ShapeConstant
	case ShapeConstant, ShapeDiurnal:
	default:
		return out, fmt.Errorf("bench: unknown shape %q (want %q or %q)", out.Shape, ShapeConstant, ShapeDiurnal)
	}
	return out, nil
}

// registry returns the kind registry the generator draws from.
func registry() *engine.Registry { return kinds.Default() }

// Kinds lists the registered request kinds in canonical (registration)
// order — the iteration order for every deterministic draw and report.
var Kinds = kinds.Default().Kinds()

// Request kinds, re-exported for convenience.
const (
	KindDeadline = kinds.KindDeadline
	KindBudget   = kinds.KindBudget
	KindTradeoff = kinds.KindTradeoff
	KindMulti    = kinds.KindMulti
)

// Request is one scheduled pricing request of any registered kind.
// Requests with the same (Kind, ProblemID) share one problem body (and
// hence one server-side fingerprint), which is what makes Cardinality a
// cache hit-rate dial.
type Request struct {
	// At is the scheduled fire time as an offset from run start (warmup
	// included: requests with At < Config.Warmup warm the cache but are
	// excluded from statistics).
	At time.Duration
	// Kind is the registry kind name.
	Kind string
	// ProblemID identifies the problem body within its kind, in
	// [0, Cardinality).
	ProblemID int
	// Spec is the problem body, generated by the kind's registered sampler;
	// it marshals to the HTTP request body.
	Spec engine.Spec

	// Campaign-scenario session script (empty on the solve scenario):
	// Steps observe+quote pairs, with StepArrivals[s] the observed worker
	// arrivals reported at step s and StepShares[s] the fraction of each
	// type's remaining tasks completed that step. All drawn from the
	// schedule seed, so a session replays identically run to run.
	Steps        int
	StepArrivals []float64
	StepShares   []float64
}

// Schedule is a fully materialized open-loop request schedule.
type Schedule struct {
	// Config is the normalized generating configuration.
	Config Config
	// Requests are sorted by At.
	Requests []Request
	// Hash is the SHA-256 over the normalized Config plus
	// (At, Kind, ProblemID) of every request — two runs are replaying the
	// same workload iff their hashes match. Covering the config matters:
	// e.g. -size changes the problem bodies without moving a single
	// arrival, so the request tuples alone would collide.
	Hash string
}

// GenerateSchedule materializes the NHPP request schedule for cfg.
// Deterministic: equal configs yield equal schedules, including problem
// bodies, across runs and platforms.
func GenerateSchedule(cfg Config) (*Schedule, error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	window := norm.Warmup + norm.Duration
	windowHours := window.Hours()
	ratePerHour := norm.Rate * 3600

	var fn rate.Fn
	switch norm.Shape {
	case ShapeConstant:
		fn = rate.Constant(ratePerHour)
	case ShapeDiurnal:
		// One full sinusoidal cycle across the run window, bucketed so the
		// NHPP thinning bound stays tight. The factors average 1 over the
		// cycle, preserving the configured mean rate.
		const buckets = 12
		factors := make([]float64, buckets)
		for i := range factors {
			factors[i] = ratePerHour * (1 + 0.6*math.Sin(2*math.Pi*float64(i)/buckets))
		}
		fn = rate.NewPiecewise(windowHours/buckets, factors)
	}

	r := dist.NewRNG(norm.Seed)
	times := nhpp.New(fn).Events(r, 0, windowHours, 0)

	problems := newProblemSet(norm)
	reqs := make([]Request, 0, len(times))
	for _, t := range times {
		req := Request{
			At:   time.Duration(t * float64(time.Hour)),
			Kind: pickKind(r, norm.Mix),
		}
		req.ProblemID = r.Intn(norm.Cardinality)
		// The dedup draw is gated on the dial so dedup-free configs consume
		// the RNG stream exactly as before and keep their schedule hashes.
		if norm.CampaignDedup > 0 && r.Float64() < norm.CampaignDedup {
			req.ProblemID = 0
		}
		req.Spec = problems.spec(req.Kind, req.ProblemID)
		if norm.Scenario == ScenarioCampaign {
			req.Steps = norm.CampaignSteps
			req.StepArrivals, req.StepShares = campaignSteps(r, req.Spec, norm.CampaignSteps)
		}
		reqs = append(reqs, req)
	}
	return &Schedule{Config: norm, Requests: reqs, Hash: hashSchedule(norm, reqs)}, nil
}

// campaignSteps draws one session's observation script. Deadline campaigns
// observe Poisson arrivals around the problem's own λ_t scaled by a
// per-session drift factor — the deviation regime §5.2.5's controller
// exists for, so adaptive runs actually re-plan; other kinds observe a
// generic nonnegative stream. Completion shares stay under one half so
// sessions keep tasks outstanding across steps (quotes exercise interior
// policy states, not just the drained corner).
func campaignSteps(r *dist.RNG, spec engine.Spec, steps int) (arrivals []float64, shares []float64) {
	arrivals = make([]float64, steps)
	shares = make([]float64, steps)
	lambdas := []float64{20}
	if d, ok := spec.(*kinds.DeadlineRequest); ok {
		lambdas = d.Lambdas
	}
	drift := r.Uniform(0.6, 1.4)
	for s := 0; s < steps; s++ {
		mean := drift * lambdas[s%len(lambdas)]
		arrivals[s] = float64(dist.Poisson{Lambda: mean}.Sample(r))
		shares[s] = r.Uniform(0, 0.4)
	}
	return arrivals, shares
}

// pickKind draws a kind proportional to its mix weight, iterating kinds in
// canonical order so the draw is deterministic.
func pickKind(r *dist.RNG, m Mix) string {
	u := r.Float64() * m.total()
	acc := 0.0
	last := ""
	for _, kind := range Kinds {
		w := m[kind]
		if w <= 0 {
			continue
		}
		last = kind
		acc += w
		if u < acc {
			return kind
		}
	}
	// Floating-point edge: u landed exactly on the total; the last
	// positive-weight kind owns the boundary.
	return last
}

func hashSchedule(cfg Config, reqs []Request) string {
	h := sha256.New()
	// The normalized config pins everything the request tuples don't
	// (problem scale, mix weights, rate); json.Marshal is deterministic
	// for structs (declaration field order) and maps (sorted keys).
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		panic("bench: Config not marshalable: " + err.Error())
	}
	h.Write(cfgJSON)
	var buf [13]byte
	for _, q := range reqs {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(q.At))
		buf[8] = kindByte(q.Kind)
		binary.LittleEndian.PutUint32(buf[9:13], uint32(q.ProblemID))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func kindByte(kind string) byte {
	for i, k := range Kinds {
		if k == kind {
			return byte(i)
		}
	}
	return 0xff
}

// problemSet lazily materializes the Cardinality distinct problem bodies
// per kind through the registry's samplers. Bodies depend only on
// (seed, kind, id) — never on arrival order — so the same logical problem
// is byte-identical across schedules, shapes, and mixes, and maps to the
// same server-side fingerprint.
type problemSet struct {
	cfg   Config
	specs map[string]map[int]engine.Spec
}

func newProblemSet(cfg Config) *problemSet {
	return &problemSet{cfg: cfg, specs: make(map[string]map[int]engine.Spec)}
}

// problemSeed derives the sampler seed for (kind, id). The large odd
// multipliers spread (seed, kind, id) triples over distinct seeds;
// dist.NewRNG then mixes the seed through splitmix64, so nearby ids still
// decorrelate.
func (ps *problemSet) problemSeed(kind string, id int) int64 {
	return ps.cfg.Seed + int64(kindByte(kind)+1)*1_000_003 + int64(id)*7_919
}

func (ps *problemSet) spec(kind string, id int) engine.Spec {
	byID, ok := ps.specs[kind]
	if !ok {
		byID = make(map[int]engine.Spec)
		ps.specs[kind] = byID
	}
	if s, ok := byID[id]; ok {
		return s
	}
	def, _ := registry().Lookup(kind)
	s := def.Sample(ps.problemSeed(kind, id), string(ps.cfg.Size))
	byID[id] = s
	return s
}
