package main

import "crowdpricing/internal/telemetry"

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are the untraced run's metrics, reported on every
// workload. Latencies are over every operation the workload runs (the
// report breaks them down per operation, with p50s). The typical latency
// is the mean, not the median: on solve-cold the two clients drift every
// few seconds between solving at the same time and taking turns, so
// latencies are bimodal and the median of a run jumps between the modes,
// while the mean moves with the mix — and it is what the traced layer
// split adds up to. The gated tail is p95, not p99: campaign-loop's
// operations take tens of microseconds, and beyond p95 their latency is
// mostly the host's scheduling noise. On a shared 2-vCPU VM the
// interquartile range of campaign-loop's p99 over ten runs was 24 % of
// its median, while its p95 ranged 9 % over six runs, as its mean did.
// The report keeps every operation's p99.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"mean_ms", "ms", "lower"},
	{"p95_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayerMetrics are the traced run's metrics, in BENCHMARK.json order.
// A time for an operation the workload does not run reads 0.
func perLayerMetrics() []metricDef {
	var out []metricDef
	ms := func(name string) { out = append(out, metricDef{name, "ms", "lower"}) }
	for o := op(0); o < numOps; o++ {
		ms("total." + o.String() + "_ms")
		ms("http." + o.String() + "_ms")
		ms("server." + o.String() + "_ms")
	}
	ms("engine.solve_ms")
	ms("engine.create_ms")
	ms("core.solve_ms")
	for _, o := range []op{opCreate, opObserve, opQuote, opFinish} {
		ms("campaign." + o.String() + "_ms")
	}
	for _, o := range []op{opCreate, opObserve, opFinish} {
		ms("wal." + o.String() + "_ms")
	}
	for o := op(0); o < numOps; o++ {
		ms("unattributed." + o.String() + "_ms")
	}
	for _, s := range telemetry.StageNames() {
		ms("stage." + s + "_ms")
		out = append(out, metricDef{"stage." + s + "_per_op", "count/op", "lower"})
	}
	out = append(out,
		metricDef{"engine.hit_ratio", "ratio", "higher"},
		metricDef{"engine.solves_per_op", "count/op", "lower"},
		metricDef{"campaign.intern_hit_ratio", "ratio", "higher"},
		metricDef{"campaign.redecodes_per_op", "count/op", "lower"},
		metricDef{"wal.bytes_per_op", "B/op", "lower"},
		metricDef{"wal.fsyncs_per_s", "1/s", "lower"},
		metricDef{"wal.fsync_ms", "ms", "lower"},
		metricDef{"runtime.alloc_kb_per_op", "KB/op", "lower"},
		metricDef{"runtime.gc_cpu_fraction", "fraction", "lower"},
		metricDef{"bench.trace_overhead_ratio", "ratio", "higher"},
	)
	return out
}
