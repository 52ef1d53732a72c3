package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// clientAgainst returns a Client pointed at a stub handler.
func clientAgainst(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// TestClientSurfacesServerErrorBody checks that a structured error reply
// (the daemon's errorResponse JSON) reaches the caller with both the HTTP
// status and the server's message.
func TestClientSurfacesServerErrorBody(t *testing.T) {
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"n 9999999 exceeds the service limit"}`))
	})
	_, err := c.SolveDeadline(context.Background(), testDeadlineRequest())
	if err == nil {
		t.Fatal("nil error for a 400 response")
	}
	for _, want := range []string{"400", "exceeds the service limit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestClientNon200WithoutJSONBody: a plain-text 500 (a proxy error page,
// say) must still produce a status-bearing error rather than a JSON decode
// failure.
func TestClientNon200WithoutJSONBody(t *testing.T) {
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream exploded", http.StatusInternalServerError)
	})
	_, err := c.SolveBudget(context.Background(), testBudgetRequest())
	if err == nil {
		t.Fatal("nil error for a 500 response")
	}
	if !strings.Contains(err.Error(), "500") {
		t.Errorf("error %q does not mention the status", err)
	}
}

// TestClientMalformedSuccessBody: a 200 whose body is not a SolveResponse
// must fail decoding instead of returning a zero-value response.
func TestClientMalformedSuccessBody(t *testing.T) {
	for name, body := range map[string]string{
		"truncated": `{"kind":"deadline","result":`,
		"not-json":  `<html>ok</html>`,
	} {
		t.Run(name, func(t *testing.T) {
			c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(body))
			})
			if _, err := c.SolveTradeoff(context.Background(), testTradeoffRequest()); err == nil {
				t.Fatal("malformed 200 body decoded without error")
			}
		})
	}
}

// TestClientContextCanceledMidRequest cancels the context while the server
// is still holding the request, and checks the client returns promptly with
// the cancellation.
func TestClientContextCanceledMidRequest(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	// Registered after clientAgainst's ts.Close cleanup, so it runs first
	// (LIFO) and the handler cannot deadlock Close.
	t.Cleanup(func() { close(release) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.SolveBudget(ctx, testBudgetRequest())
		done <- err
	}()
	<-inHandler
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not return after cancellation")
	}
}

// TestClientContextTimeout: a deadline that expires mid-request surfaces
// context.DeadlineExceeded.
func TestClientContextTimeout(t *testing.T) {
	release := make(chan struct{})
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	t.Cleanup(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.SolveDeadline(ctx, testDeadlineRequest())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestClientBatchErrorPaths exercises the batch call's non-200 handling.
func TestClientBatchErrorPaths(t *testing.T) {
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"empty batch"}`))
	})
	if _, err := c.SolveBatch(context.Background(), BatchRequest{}); err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Fatalf("err = %v, want the server's message", err)
	}
}

// TestClientHealthzErrorPaths: non-200 and malformed bodies from /healthz.
func TestClientHealthzErrorPaths(t *testing.T) {
	t.Run("non-200", func(t *testing.T) {
		c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
		})
		if _, err := c.Healthz(context.Background()); err == nil || !strings.Contains(err.Error(), "503") {
			t.Fatalf("err = %v, want a 503 error", err)
		}
	})
	t.Run("malformed-body", func(t *testing.T) {
		c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("not json"))
		})
		if _, err := c.Healthz(context.Background()); err == nil {
			t.Fatal("malformed healthz body decoded without error")
		}
	})
}

// TestClientReusesConnection: sequential calls on one Client share one
// keep-alive connection. A paper-scale policy is a ~312 KB chunked body
// whose terminator json.Decoder never reads; unless the client drains it,
// net/http drops the connection and every call dials afresh. A rejected
// request in the middle checks the error path drains too.
func TestClientReusesConnection(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var dials atomic.Int64
	var dialer net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	t.Cleanup(tr.CloseIdleConnections)
	c := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}
	ctx := context.Background()
	req := paperScaleRequest()
	const n = 4
	for i := 0; i < n; i++ {
		if i == n/2 {
			bad := req
			bad.N = 0
			if _, err := c.SolveDeadline(ctx, bad); apiStatus(err) != http.StatusBadRequest {
				t.Fatalf("invalid solve: err = %v, want a 400", err)
			}
		}
		res, err := c.SolveDeadline(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Result) < 100_000 {
			t.Fatalf("paper-scale policy is %d bytes; the test needs a large body", len(res.Result))
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d sequential calls dialed %d connections, want 1", n+1, got)
	}
}

// TestClientConnectionRefused: a dead endpoint produces a transport error,
// not a hang or a zero response.
func TestClientConnectionRefused(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // reserved port, nothing listens
	if _, err := c.SolveBudget(context.Background(), testBudgetRequest()); err == nil {
		t.Fatal("nil error against a dead endpoint")
	}
}
