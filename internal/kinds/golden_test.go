package kinds_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
	"crowdpricing/internal/server"
)

// The files in testdata/ were written by the json.Marshal-based solve path
// that the typed artifacts replaced: Spec.Solve bytes for seed 1 of every
// kind at the small scale, of the deadline kind at the paper scale, and
// the full body of a warm /v1/solve/deadline hit at the small scale. The
// wire format may not drift from them by a byte.

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(name) != ".gz" {
		return b
	}
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	b, err = io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sample(t *testing.T, kind, size string) engine.Spec {
	t.Helper()
	def, ok := kinds.Default().Lookup(kind)
	if !ok {
		t.Fatalf("kind %q not registered", kind)
	}
	return def.Sample(1, size)
}

// TestWireGolden: Spec.Solve and the artifact's AppendJSON reproduce the
// golden bytes of every kind.
func TestWireGolden(t *testing.T) {
	ctx := context.Background()
	cases := map[string]engine.Spec{"deadline-paper.json.gz": sample(t, kinds.KindDeadline, "paper")}
	for _, kind := range kinds.Default().Kinds() {
		cases[kind+"-small.json"] = sample(t, kind, "small")
	}
	for name, spec := range cases {
		want := readGolden(t, name)
		got, err := spec.Solve(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Spec.Solve bytes differ from the golden file", name)
		}
		a, err := spec.SolveArtifact(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(a.AppendJSON(nil), want) {
			t.Errorf("%s: AppendJSON bytes differ from the golden file", name)
		}
	}
}

// TestSolveHitBodyGolden: the solve handler's warm-hit body is the golden
// envelope byte for byte, trailing newline included, and at the paper
// scale it carries the golden artifact verbatim.
func TestSolveHitBodyGolden(t *testing.T) {
	s := server.New(server.Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hit := func(spec engine.Spec) []byte {
		t.Helper()
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var last []byte
		for range 2 {
			resp, err := http.Post(ts.URL+"/v1/solve/deadline", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			last, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, read error %v: %s", resp.StatusCode, err, last)
			}
		}
		return last
	}
	if got, want := hit(sample(t, kinds.KindDeadline, "small")), readGolden(t, "solve-deadline-hit-small.json"); !bytes.Equal(got, want) {
		t.Errorf("hit body differs from the golden file:\n got %.200s\nwant %.200s", got, want)
	}
	got := hit(sample(t, kinds.KindDeadline, "paper"))
	want := append(readGolden(t, "deadline-paper.json.gz"), "}\n"...)
	if !bytes.HasSuffix(got, want) || !bytes.HasPrefix(got, []byte(`{"kind":"deadline","fingerprint":"deadline/efficient:`)) {
		t.Errorf("paper-scale hit body does not carry the golden artifact verbatim")
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(got, &resp); err != nil || !resp.CacheHit {
		t.Errorf("paper-scale hit body: cache_hit %v, decode error %v", resp.CacheHit, err)
	}
}
