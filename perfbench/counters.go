package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"crowdpricing/internal/telemetry"
)

// counters is a reading, or a sum of phase deltas, of every counter the
// per-layer metrics derive from: the daemon's own (engine, intern table,
// WAL, stage histograms on /metrics), the benchmark's fsync timer, the Go
// runtime's, and the wall clock (key "seconds").
type counters map[string]float64

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters(ctx context.Context, d *daemon, fsync *fsyncTimer) (counters, error) {
	m := d.srv.Metrics()
	c := counters{
		"seconds":   float64(time.Now().UnixNano()) / 1e9,
		"hits":      float64(m.CacheHits),
		"misses":    float64(m.CacheMisses),
		"solves":    float64(m.Solves),
		"ihits":     float64(m.QuoterInternHits),
		"imisses":   float64(m.QuoterInternMisses),
		"redecodes": float64(m.QuoterRedecodes),
	}
	if d.wlog != nil {
		c["walBytes"] = float64(d.wlog.Metrics().Bytes)
	}
	if fsync != nil {
		c["fsyncs"], c["fsyncNanos"] = float64(fsync.count.Load()), float64(fsync.nanos.Load())
	}
	sum, count, err := scrapeStages(ctx, d.base)
	if err != nil {
		return nil, err
	}
	for s, v := range sum {
		c["stageSum:"+s] = v
	}
	for s, v := range count {
		c["stageCount:"+s] = v
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	c["allocBytes"] = float64(samples[0].Value.Uint64())
	c["gcCPU"] = samples[1].Value.Float64()
	c["totalCPU"] = samples[2].Value.Float64()
	return c, nil
}

// add accumulates the change from a to b.
func (c counters) add(a, b counters) {
	for k, v := range b {
		c[k] += v - a[k]
	}
}

// scrapeStages reads the daemon's per-stage duration histograms from
// /metrics: the _sum (seconds) and _count series per stage label.
func scrapeStages(ctx context.Context, base string) (sum, count map[string]float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, nil, err
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET /metrics: %s", res.Status)
	}
	sum, count = map[string]float64{}, map[string]float64{}
	const family = "crowdpricing_stage_duration_seconds"
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var into map[string]float64
		switch {
		case strings.HasPrefix(line, family+"_sum{"):
			into = sum
		case strings.HasPrefix(line, family+"_count{"):
			into = count
		default:
			continue
		}
		open, close := strings.Index(line, `stage="`), strings.Index(line, `"}`)
		if open < 0 || close < open {
			return nil, nil, fmt.Errorf("unparseable stage series %q", line)
		}
		stage := line[open+len(`stage="`) : close]
		v, err := strconv.ParseFloat(strings.TrimSpace(line[close+2:]), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("stage series %q: %w", line, err)
		}
		into[stage] = v
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	for _, s := range telemetry.StageNames() {
		if _, ok := count[s]; !ok {
			return nil, nil, fmt.Errorf("/metrics has no %s series for stage %q", family, s)
		}
	}
	return sum, count, nil
}

// liveHeapMB reads the live heap after two collections: the second
// empties the sync.Pool victim caches the first one leaves, which would
// otherwise keep a varying number of pooled response buffers alive.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics derives the per-layer counter metrics from the summed
// counter deltas d over the ops recorded in rec.
func counterMetrics(d counters, rec *recorder) map[string]float64 {
	ops := float64(0)
	for _, s := range rec.ops {
		ops += float64(s.attempted)
	}
	engineOps := float64(rec.ops[opSolve].attempted + rec.ops[opCreate].attempted)
	out := map[string]float64{
		"engine.hit_ratio":          ratio(d["hits"], d["hits"]+d["misses"]),
		"engine.solves_per_op":      ratio(d["solves"], engineOps),
		"campaign.intern_hit_ratio": ratio(d["ihits"], d["ihits"]+d["imisses"]),
		"campaign.redecodes_per_op": ratio(d["redecodes"], float64(rec.ops[opCreate].attempted)),
		"wal.bytes_per_op":          ratio(d["walBytes"], ops),
		"wal.fsyncs_per_s":          ratio(d["fsyncs"], d["seconds"]),
		"wal.fsync_ms":              ratio(d["fsyncNanos"]/1e6, d["fsyncs"]),
		"runtime.alloc_kb_per_op":   ratio(d["allocBytes"]/1024, ops),
		"runtime.gc_cpu_fraction":   ratio(d["gcCPU"], d["totalCPU"]),
	}
	for _, s := range telemetry.StageNames() {
		n := d["stageCount:"+s]
		out["stage."+s+"_ms"] = ratio(d["stageSum:"+s]*1e3, n)
		out["stage."+s+"_per_op"] = ratio(n, ops)
	}
	return out
}
