// Command waldump inspects a campaign event log written by priced's
// -wal-dir: it lists records (human or JSON lines), verifies frame
// integrity, and replays the log through the analytics plane — the
// log→figure pipeline.
//
// The log directory is never modified: waldump reads it while the daemon
// may still be running, stopping (and reporting) at a torn tail exactly
// where priced's recovery would truncate it.
//
// -stats folds every recorded create/observe/finish into the same
// aggregator that serves /v1/analytics live and prints the fleet λ̂
// re-fit, the per-interval arrival profile (the piecewise NHPP rate fit),
// and the per-cohort summaries as JSON. The fold is deterministic: the same
// log prints byte-identical output on every run, so recorded production
// traffic regenerates paper figures reproducibly — a property the CI
// obs-smoke job asserts by comparing two runs.
//
// Examples:
//
//	waldump -dir /var/lib/priced/wal                 # human listing
//	waldump -dir /var/lib/priced/wal -json | jq .    # machine listing
//	waldump -dir /var/lib/priced/wal -verify         # integrity check (exit 1 on damage)
//	waldump -dir /var/lib/priced/wal -stats          # λ̂/cohort fold as JSON
//	waldump -dir wal -stats -figures profile.tsv     # plus the λ̂_t profile as TSV
//
// Flags:
//
//	-dir string        log directory (required)
//	-json              list records as JSON lines instead of the human format
//	-verify            verify integrity only: print a summary, exit 1 if any
//	                   segment is corrupt or a torn tail was found
//	-stats             replay the log through the analytics plane and print
//	                   the λ̂/cohort fold as JSON
//	-window int        with -stats: trailing-window length (observed
//	                   intervals) of the λ̂ re-fit, matching the daemon's
//	                   -analytics-window (default 256)
//	-figures string    with -stats: also write the per-interval arrival
//	                   profile as TSV — interval index, fitted rate, mean
//	                   arrivals, observe count — ready for gnuplot/pgfplots
//	                   ("" disables)
//
// The modes -json, -verify and -stats are mutually exclusive. Usage errors
// exit 2; a damaged or unreadable log exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"crowdpricing/internal/analytics"
	"crowdpricing/internal/campaign"
	"crowdpricing/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: it parses args, writes
// results to stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("waldump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: waldump -dir DIR [-json | -verify | -stats [-window n] [-figures out.tsv]]\n\n")
		fmt.Fprintf(stderr, "Inspect a campaign event log written by priced -wal-dir.\n\nflags:\n")
		fs.PrintDefaults()
	}
	dir := fs.String("dir", "", "log directory (required)")
	asJSON := fs.Bool("json", false, "list records as JSON lines")
	verify := fs.Bool("verify", false, "verify integrity only; exit 1 on corruption or a torn tail")
	stats := fs.Bool("stats", false, "replay the log through the analytics plane and print the λ̂/cohort fold as JSON")
	window := fs.Int("window", analytics.DefaultWindow, "with -stats: trailing-window length (observed intervals) of the λ̂ re-fit")
	figures := fs.String("figures", "", `with -stats: write the per-interval arrival profile as TSV ("" disables)`)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	modes := 0
	for _, on := range []bool{*asJSON, *verify, *stats} {
		if on {
			modes++
		}
	}
	if *dir == "" || fs.NArg() > 0 || modes > 1 || (!*stats && *figures != "") {
		fs.Usage()
		return 2
	}

	var err error
	switch {
	case *stats:
		err = printStats(stdout, *dir, *window, *figures)
	case *verify:
		err = verifyLog(stdout, stderr, *dir)
	default:
		err = listRecords(stdout, stderr, *dir, *asJSON)
	}
	if err != nil {
		fmt.Fprintf(stderr, "waldump: %v\n", err)
		return 1
	}
	return 0
}

// jsonRecord is the -json line schema.
type jsonRecord struct {
	LSN     uint64          `json:"lsn"`
	Type    string          `json:"type"`
	Segment int64           `json:"segment"`
	Offset  int64           `json:"offset"`
	Bytes   int64           `json:"bytes"`
	Body    json.RawMessage `json:"body"`
}

func listRecords(stdout, stderr io.Writer, dir string, asJSON bool) error {
	enc := json.NewEncoder(stdout)
	report, err := wal.Scan(wal.DirFS{}, dir, func(rec wal.Record, pos wal.FramePos) error {
		name := campaign.WALRecordName(rec.Type)
		if asJSON {
			return enc.Encode(jsonRecord{
				LSN:     rec.LSN,
				Type:    name,
				Segment: pos.Segment,
				Offset:  pos.Offset,
				Bytes:   pos.End - pos.Offset,
				Body:    json.RawMessage(rec.Data),
			})
		}
		body := rec.Data
		// Snapshot payloads are whole tables; keep the listing readable.
		const maxBody = 120
		suffix := ""
		if len(body) > maxBody {
			body, suffix = body[:maxBody], fmt.Sprintf("… (%d bytes)", len(rec.Data))
		}
		_, err := fmt.Fprintf(stdout, "lsn=%-6d %-8s seg=%d off=%-8d %s%s\n",
			rec.LSN, name, pos.Segment, pos.Offset, body, suffix)
		return err
	})
	if err != nil {
		return err
	}
	printSummary(stderr, report)
	return nil
}

func verifyLog(stdout, stderr io.Writer, dir string) error {
	report, err := wal.Scan(wal.DirFS{}, dir, nil)
	if err != nil {
		return fmt.Errorf("CORRUPT: %w", err)
	}
	printSummary(stderr, report)
	if t := report.Torn; t != nil {
		return fmt.Errorf("TORN TAIL: recovery would truncate %s at offset %d (dropping %d byte(s)): %s",
			t.Name, t.Offset, t.Bytes, t.Reason)
	}
	fmt.Fprintln(stdout, "ok: every frame intact")
	return nil
}

func printSummary(stderr io.Writer, report *wal.ScanReport) {
	fmt.Fprintf(stderr, "%d record(s) across %d segment(s), max lsn %d\n",
		report.Records, len(report.Segments), report.MaxLSN)
	if report.Torn != nil {
		fmt.Fprintf(stderr, "torn tail in %s: %d byte(s) past offset %d not replayed\n",
			report.Torn.Name, report.Torn.Bytes, report.Torn.Offset)
	}
}

// printStats folds the log through the analytics plane (campaign.FoldWAL:
// no solver, read-only, O(records)) and prints the snapshot as indented
// JSON. encoding/json marshals map keys sorted, so the output is
// byte-identical across runs over the same log by construction.
func printStats(stdout io.Writer, dir string, window int, figures string) error {
	agg := analytics.New(window)
	if err := campaign.FoldWAL(wal.NewReader(nil, dir), agg); err != nil {
		return err
	}
	snap := agg.Snapshot()
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", out); err != nil {
		return err
	}
	if figures == "" {
		return nil
	}
	return writeFigures(figures, snap)
}

// writeFigures renders the λ̂_t profile — the piecewise arrival-rate fit
// over interval index — as a TSV plotting tools consume directly.
func writeFigures(path string, snap *analytics.Snapshot) error {
	var b bytes.Buffer
	fmt.Fprintln(&b, "# interval\tlambda_hat\tmean_arrivals\tobserves")
	r := snap.Rate()
	for i, mean := range snap.IntervalMeans {
		fitted := 0.0
		if r != nil {
			fitted = r.Rate(float64(i) + 0.5)
		}
		fmt.Fprintf(&b, "%d\t%g\t%g\t%d\n", i, fitted, mean, snap.IntervalObserves[i])
	}
	return os.WriteFile(path, b.Bytes(), 0o666)
}
