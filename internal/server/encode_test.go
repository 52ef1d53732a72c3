package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"crowdpricing/internal/kinds"
)

// TestAnalyticsNeverEmpty2xx replays the fleet-λ̂ poisoning sequence: three
// {"arrivals": 1e308} observes on one campaign push λ̂ to +Inf, which
// encoding/json refuses. Every response must still be a non-empty JSON
// body, and no 2xx may carry an empty one: an encode failure answers 500
// with a JSON error instead of a committed 200 with nothing after it.
func TestAnalyticsNeverEmpty2xx(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, err := json.Marshal(CreateCampaignRequest{Kind: KindDeadline, Request: mustJSON(t, campaignDeadlineRequest())})
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignState
	if err := json.Unmarshal(call(t, ts, http.MethodPost, "/v1/campaigns", body), &st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		call(t, ts, http.MethodPost, "/v1/campaigns/"+st.ID+"/observe", []byte(`{"arrivals": 1e308}`))
	}
	call(t, ts, http.MethodGet, "/v1/analytics", nil)
}

// call sends one request and fails unless the reply is a non-empty,
// valid JSON document; it returns the body.
func call(t *testing.T, ts *httptest.Server, method, path string, body []byte) []byte {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s %s: %d %.120s", method, path, resp.StatusCode, got)
	if len(bytes.TrimSpace(got)) == 0 || !json.Valid(got) {
		t.Fatalf("%s %s answered %d with body %q, want a JSON document", method, path, resp.StatusCode, got)
	}
	return got
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// discardWriter is a ResponseWriter that counts the body and keeps none
// of it, so an allocation fence sees only the handler's own allocations.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(code int)        { d.status = code }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestSolveWarmHitAllocBound fences the warm-hit response path at paper
// scale: the ~312 KB artifact is appended into a pooled buffer, so a hit
// allocates the request decode and the envelope head, never a copy of the
// artifact. The bound is 64 KiB per hit. Under the race detector
// sync.Pool drops buffers at random, so the fence does not apply.
func TestSolveWarmHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	s := New(Options{})
	defer s.Close()
	h := s.Handler()
	def, _ := kinds.Default().Lookup(kinds.KindDeadline)
	body := mustJSON(t, def.Sample(1, "paper"))
	serve := func() *discardWriter {
		w := &discardWriter{header: http.Header{}, status: http.StatusOK}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve/deadline", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
		return w
	}
	serve() // the solve
	w := serve()
	if w.n < 300<<10 {
		t.Fatalf("warm hit wrote %d bytes; not a paper-scale artifact", w.n)
	}
	const hits = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("paper-scale warm hit: %d B allocated per hit for a %d B body", perHit, w.n)
	if perHit >= 64<<10 {
		t.Fatalf("warm hit allocates %d B, bound %d B: the artifact is being copied per request", perHit, 64<<10)
	}
	if got := s.Metrics().CacheHits; got < hits {
		t.Fatalf("%d cache hits, want at least %d", got, hits)
	}
}
