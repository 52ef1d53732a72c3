package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"crowdpricing/internal/server"
)

// op is one kind of daemon operation the benchmark times.
type op int

const (
	opSolve op = iota
	opCreate
	opObserve
	opQuote
	opFinish
	numOps
)

var opNames = [numOps]string{"solve", "create", "observe", "quote", "finish"}

func (o op) String() string { return opNames[o] }

// opStats accounts one op kind on one client: every attempt ends as
// exactly one success or one failure, and a wrong answer is a failure.
type opStats struct {
	attempted int64
	succeeded int64
	failed    int64
	wrong     int64
	// lat holds the latency of every succeeded attempt.
	lat []time.Duration
}

// recorder is one client's accounting; clients never share one, so the
// hot loop takes no lock.
type recorder struct {
	ops   [numOps]opStats
	notes []string
}

// begin counts an attempt.
func (r *recorder) begin(o op) { r.ops[o].attempted++ }

// ok records a correct answer and its latency.
func (r *recorder) ok(o op, d time.Duration) {
	r.ops[o].succeeded++
	r.ops[o].lat = append(r.ops[o].lat, d)
}

// fail records an error or refusal.
func (r *recorder) fail(o op, err error) {
	r.ops[o].failed++
	r.note(fmt.Sprintf("%s failed: %v", o, err))
}

// wrongAnswer records an answer that failed its check.
func (r *recorder) wrongAnswer(o op, why string) {
	r.ops[o].failed++
	r.ops[o].wrong++
	r.note(fmt.Sprintf("%s wrong: %s", o, why))
}

// note keeps the first few failure messages for the report.
func (r *recorder) note(s string) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, s)
	}
}

// merge folds other into r.
func (r *recorder) merge(other *recorder) {
	for o := range r.ops {
		a, b := &r.ops[o], &other.ops[o]
		a.attempted += b.attempted
		a.succeeded += b.succeeded
		a.failed += b.failed
		a.wrong += b.wrong
		a.lat = append(a.lat, b.lat...)
	}
	for _, n := range other.notes {
		r.note(n)
	}
}

func (r *recorder) totals() (attempted, succeeded, failed, wrong int64) {
	for _, s := range r.ops {
		attempted += s.attempted
		succeeded += s.succeeded
		failed += s.failed
		wrong += s.wrong
	}
	return
}

// sampleBytes is the memory held by the latency samples.
func (r *recorder) sampleBytes() int {
	n := 0
	for _, s := range r.ops {
		n += cap(s.lat) * int(unsafe.Sizeof(time.Duration(0)))
	}
	return n
}

// balanced reports whether every op kind accounts attempted = succeeded
// + failed.
func (r *recorder) balanced() bool {
	for _, s := range r.ops {
		if s.attempted != s.succeeded+s.failed || int64(len(s.lat)) != s.succeeded {
			return false
		}
	}
	return true
}

// rank is the 1-based nearest rank of quantile q among n samples — the
// same rule internal/hdr's Quantile applies to its buckets, so the two
// agree up to hdr's bucket width.
func rank(n int, q float64) int {
	r := int(q*float64(n) + 0.5)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is a latency quantile taken exactly from the samples.
type percentile struct {
	// Q is the quantile reported; Beyond the samples above it; N the
	// sample count.
	Q      float64 `json:"q"`
	Beyond int     `json:"beyond"`
	N      int     `json:"n"`
	MS     float64 `json:"ms"`
}

// quantiles sorts lat and returns its median and its tail: p99, or the
// highest quantile that still has at least ten samples beyond it when
// there are too few samples for p99.
func quantiles(lat []time.Duration) (p50, tail percentile) {
	n := len(lat)
	if n == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50 = quantileOf(lat, 0.5)
	tail = quantileOf(lat, 0.99)
	if tail.Beyond < 10 && n > 20 {
		tail = quantileOf(lat, math.Floor(float64(n-10)/float64(n)*1000)/1000)
	}
	return p50, tail
}

// quantileOf is quantile q of the sorted, non-empty lat.
func quantileOf(lat []time.Duration, q float64) percentile {
	n := len(lat)
	r := rank(n, q)
	return percentile{Q: q, Beyond: n - r, N: n, MS: ms(lat[r-1])}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return ms(sum) / float64(len(lat))
}

// traceIDKey carries a request's trace ID from the client call to the
// transport, which forwards it to the daemon-side span in traceHeader.
type traceIDKey struct{}

const traceHeader = "X-Perfbench-Trace"

// clientTransport stamps the trace header on requests whose context
// carries a trace ID, and drains each response body before closing it.
// server.Client decodes one JSON value and closes the body without
// reading to EOF (the encoder's trailing newline, or the chunked
// terminator, is left unread), and net/http drops such a connection
// instead of reusing it: without the drain every call would dial a new
// connection, and the closed loop would not hold one connection per client.
type clientTransport struct{ base http.RoundTripper }

func (t clientTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(traceIDKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(traceHeader, strconv.FormatUint(id, 16))
	}
	res, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	res.Body = drainCloser{res.Body}
	return res, nil
}

type drainCloser struct{ io.ReadCloser }

func (d drainCloser) Close() error {
	_, _ = io.Copy(io.Discard, d.ReadCloser) // a read error surfaces as the Close below or a fresh dial
	return d.ReadCloser.Close()
}

// client is one closed-loop caller: one typed Client on one keep-alive
// connection, its own accounting, and (traced runs) its own spans.
type client struct {
	idx   int
	api   *server.Client
	tr    *http.Transport
	dials atomic.Int64
	rec   *recorder
	spans *spanLog
	seq   uint64
}

func newClient(idx int, base string) *client {
	c := &client{idx: idx, rec: &recorder{}}
	var dialer net.Dialer
	c.tr = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	c.api = &server.Client{BaseURL: base, HTTP: &http.Client{Transport: clientTransport{c.tr}}}
	return c
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call times one client call. On a traced client it also records the
// client span and hands the trace ID to the transport.
func (c *client) call(ctx context.Context, o op, fn func(context.Context) error) (time.Duration, error) {
	if c.spans == nil {
		start := time.Now()
		err := fn(ctx)
		return time.Since(start), err
	}
	c.seq++
	id := uint64(c.idx+1)<<40 | c.seq
	ctx = context.WithValue(ctx, traceIDKey{}, id)
	start := c.spans.now()
	err := fn(ctx)
	end := c.spans.now()
	c.spans.add(span{Trace: id, ID: 1, Name: "client." + o.String(), Start: start, End: end})
	return time.Duration(end - start), err
}

// runClients runs body on every client concurrently until each returns,
// and reports the wall time from the common start to the last return.
func runClients(clients []*client, body func(*client)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(c)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// cursor hands out stream positions to the clients in order.
type cursor struct{ next atomic.Int64 }

func (c *cursor) take() int { return int(c.next.Add(1) - 1) }
