package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced request. Spans of one request
// share Trace; ID and Parent link them (the client call is span 1, the
// daemon-side handler span 2 with parent 1). Times are nanoseconds since
// the benchmark's trace epoch.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(epoch time.Time, capacity int) *spanLog {
	return &spanLog{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// handlerSpans records a span around the daemon's handler for every
// request that carries a trace header, while on.
type handlerSpans struct {
	on  atomic.Bool
	log *spanLog
}

func (hs *handlerSpans) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !hs.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseUint(r.Header.Get(traceHeader), 16, 64)
		start := hs.log.now()
		h.ServeHTTP(w, r)
		end := hs.log.now()
		if err == nil {
			hs.log.add(span{Trace: id, ID: 2, Parent: 1, Name: "handler " + r.Pattern, Start: start, End: end})
		}
	})
}

// spanSplit is the span-derived part of one op's split: the traced mean
// client latency and the mean of client span minus handler span, over
// requests that have both spans.
type spanSplit struct {
	N       int
	TotalMS float64
	HTTPMS  float64
}

// splitSpans joins client and handler spans by trace ID, per op.
func splitSpans(clients []*spanLog, handler *spanLog) [numOps]spanSplit {
	handlerDur := make(map[uint64]int64, len(handler.spans))
	for _, s := range handler.spans {
		handlerDur[s.Trace] = s.End - s.Start
	}
	var out [numOps]spanSplit
	var sums [numOps][2]float64
	for _, l := range clients {
		for _, s := range l.spans {
			o, ok := opByClientSpan[s.Name]
			if !ok {
				continue
			}
			hd, ok := handlerDur[s.Trace]
			if !ok {
				continue
			}
			d := s.End - s.Start
			out[o].N++
			sums[o][0] += float64(d)
			sums[o][1] += float64(d - hd)
		}
	}
	for o := range out {
		if n := float64(out[o].N); n > 0 {
			out[o].TotalMS = sums[o][0] / n / 1e6
			out[o].HTTPMS = sums[o][1] / n / 1e6
		}
	}
	return out
}

var opByClientSpan = func() map[string]op {
	m := make(map[string]op, numOps)
	for o := op(0); o < numOps; o++ {
		m["client."+o.String()] = o
	}
	return m
}()

// writeSpans writes every span as one JSON line.
func writeSpans(path string, logs ...*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeCalls runs fn over items on one goroutine per client in a closed loop —
// the load shape of the measured phase — and returns the summed duration
// of each named part fn reports.
func timeCalls(items int, fn func(i int, add func(part string, d time.Duration)) error) (map[string]time.Duration, error) {
	var (
		mu    sync.Mutex
		sums  = map[string]time.Duration{}
		first error
		next  cursor
		wg    sync.WaitGroup
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := map[string]time.Duration{}
			add := func(part string, d time.Duration) { local[part] += d }
			for {
				i := next.take()
				if i >= items {
					break
				}
				if err := fn(i, add); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					break
				}
			}
			mu.Lock()
			for k, v := range local {
				sums[k] += v
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sums, first
}

// perCall is a summed duration as milliseconds per call.
func perCall(sum time.Duration, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return ms(sum) / float64(calls)
}
