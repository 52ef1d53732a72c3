package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/campaign"
	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/wal"
)

// smallDeadline is a tiny deadline problem: cheap to solve, enough to log.
const smallDeadline = `{"n": 4, "horizon_hours": 2, "intervals": 3, "lambdas": [5,5,5],
	"accept": {"s": 15, "b": -0.39, "m": 2000},
	"min_price": 1, "max_price": 10, "penalty": 40}`

// writeLog runs a short campaign history against a real on-disk log in a
// fresh directory — two campaigns created, three observes, one finished —
// and returns the directory and the live analytics fold of that traffic.
// With compact set, the log is then compacted and takes one more observe,
// so it holds a snapshot record.
func writeLog(t *testing.T, compact bool) (string, *analytics.Aggregator) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	m := campaign.NewManager(eng, nil, campaign.Options{TTL: -1})
	defer m.Close()
	live := analytics.New(analytics.DefaultWindow)
	m.AttachSink(live)
	wlog, err := m.OpenWAL(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachWAL(wlog)

	ctx := context.Background()
	a, err := m.Create(ctx, kinds.KindDeadline, json.RawMessage(smallDeadline), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create(ctx, kinds.KindDeadline, json.RawMessage(smallDeadline), &campaign.AdaptiveOptions{WindowIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	observe := func(id string, arrivals float64, completed int) {
		t.Helper()
		if _, err := m.Observe(id, arrivals, []int{completed}); err != nil {
			t.Fatal(err)
		}
	}
	observe(a.ID, 4, 1)
	observe(b.ID, 7, 2)
	observe(a.ID, 6, 0)
	if _, err := m.Finish(a.ID); err != nil {
		t.Fatal(err)
	}
	if compact {
		if err := wlog.Compact(); err != nil {
			t.Fatal(err)
		}
		observe(b.ID, 3, 1)
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, live
}

// runCmd runs waldump with args and returns its exit code and outputs.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestListing: the human listing starts one line per record, in LSN
// order, with the summary on stderr; -json prints the same records as
// JSON lines carrying each record's body verbatim.
func TestListing(t *testing.T) {
	dir, _ := writeLog(t, true)

	code, out, errOut := runCmd("-dir", dir)
	if code != 0 {
		t.Fatalf("listing exited %d: %s", code, errOut)
	}
	// The compaction folded everything into a snapshot record; one observe
	// follows it. Each record starts an lsn= line (the snapshot's indented
	// JSON body spans several).
	var heads []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "lsn=") {
			heads = append(heads, line)
		}
	}
	wantTypes := []string{"snapshot", "observe"}
	if len(heads) != len(wantTypes) {
		t.Fatalf("listing has %d records, want %d:\n%s", len(heads), len(wantTypes), out)
	}
	for i, line := range heads {
		if strings.Fields(line)[1] != wantTypes[i] {
			t.Errorf("record %d = %q, want type %s", i, line, wantTypes[i])
		}
	}
	if !strings.Contains(out, "… (") {
		t.Errorf("snapshot body not truncated with a byte count:\n%s", out)
	}
	if !strings.HasPrefix(errOut, "2 record(s) across 1 segment(s)") {
		t.Errorf("summary = %q", errOut)
	}

	code, out, errOut = runCmd("-dir", dir, "-json")
	if code != 0 {
		t.Fatalf("-json exited %d: %s", code, errOut)
	}
	var prev uint64
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(nil, 1<<20)
	n := 0
	for ; sc.Scan(); n++ {
		var rec jsonRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not a JSON record: %v", n, err)
		}
		if rec.Type != wantTypes[n] || rec.LSN <= prev || rec.Bytes <= 0 || !json.Valid(rec.Body) {
			t.Errorf("record %d = %+v", n, rec)
		}
		prev = rec.LSN
	}
	if n != len(wantTypes) {
		t.Fatalf("-json printed %d records, want %d", n, len(wantTypes))
	}
}

// TestVerify: an intact log verifies clean; a torn tail — garbage past
// the last whole frame, as a crash mid-write leaves — exits 1.
func TestVerify(t *testing.T) {
	dir, _ := writeLog(t, false)
	code, out, errOut := runCmd("-dir", dir, "-verify")
	if code != 0 || !strings.Contains(out, "ok: every frame intact") {
		t.Fatalf("intact log: exit %d, stdout %q, stderr %q", code, out, errOut)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x30, 0, 0, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	code, out, errOut = runCmd("-dir", dir, "-verify")
	if code != 1 || !strings.Contains(errOut, "TORN TAIL") || strings.Contains(out, "ok:") {
		t.Fatalf("torn log: exit %d, stdout %q, stderr %q; want exit 1 and a TORN TAIL report", code, out, errOut)
	}
}

// TestStats: -stats prints identical bytes (JSON and TSV) on two runs over
// one log, and they are the live analytics fold of the traffic that wrote
// it — quotes aside, which are never logged (this history has none).
func TestStats(t *testing.T) {
	dir, live := writeLog(t, false)
	tmp := t.TempDir()
	var outs, figs [2]string
	for i := range outs {
		fig := filepath.Join(tmp, "profile"+string(rune('a'+i))+".tsv")
		code, out, errOut := runCmd("-dir", dir, "-stats", "-figures", fig)
		if code != 0 {
			t.Fatalf("-stats exited %d: %s", code, errOut)
		}
		data, err := os.ReadFile(fig)
		if err != nil {
			t.Fatal(err)
		}
		outs[i], figs[i] = out, string(data)
	}
	if outs[0] != outs[1] || figs[0] != figs[1] {
		t.Fatal("two -stats runs over one log printed different bytes")
	}

	want, err := json.MarshalIndent(live.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != string(want)+"\n" {
		t.Fatalf("-stats disagrees with the live fold\n got: %s\nwant: %s", outs[0], want)
	}
	var snap analytics.Snapshot
	if err := json.Unmarshal([]byte(outs[0]), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Observes != 3 {
		t.Errorf("stats folded %d observes, want 3", snap.Observes)
	}
	tsv := strings.Split(strings.TrimSuffix(figs[0], "\n"), "\n")
	if tsv[0] != "# interval\tlambda_hat\tmean_arrivals\tobserves" || len(tsv) != 1+len(snap.IntervalMeans) {
		t.Errorf("figures TSV:\n%s", figs[0])
	}
}

// TestUsage: a missing -dir, stray arguments, two modes at once, or
// -figures outside -stats are usage errors (exit 2); -h is not an error.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-dir", "d", "extra"},
		{"-dir", "d", "-json", "-stats"},
		{"-dir", "d", "-verify", "-stats"},
		{"-dir", "d", "-figures", "f.tsv"},
		{"-no-such-flag"},
	} {
		if code, _, errOut := runCmd(args...); code != 2 || !strings.Contains(errOut, "usage: waldump") {
			t.Errorf("args %q: exit %d, stderr %q; want 2 and the usage", args, code, errOut)
		}
	}
	if code, _, _ := runCmd("-h"); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
	if code, _, errOut := runCmd("-dir", filepath.Join(t.TempDir(), "missing"), "-stats"); code != 1 {
		t.Errorf("missing log: exit %d (%s), want 1", code, errOut)
	}
}
