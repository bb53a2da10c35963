package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

type opKind uint8

const (
	opInvoke opKind = iota
	opRegister
	opStats
	// opLocal runs an in-process call (a delete applied to every member)
	// on the sender's goroutine, at its place in the schedule.
	opLocal
)

// op is one scheduled operation of an open-loop schedule. Everything the
// sender needs is built up front, so generating load costs no set-up work
// on the measured path.
type op struct {
	due    time.Duration // offset from the schedule start
	kind   opKind
	method string
	url    string
	body   []byte
	model  string
	local  func() error
	// traced ops carry the tracing headers and record a client span.
	traced bool
}

// outcome is what happened to one op. An op whose sender was still busy
// with an earlier op at its due time is timed from the due time, so waiting
// the server caused counts; otherwise it is timed from the actual send, and
// the timer's oversleep goes to late instead. The exception is a backlog
// that began with an op of another kind: a sender multiplexes independent
// clients onto one connection, and an invoke does not queue behind another
// client's registration or stats read, so such an op is timed from its send.
type outcome struct {
	sent, end time.Duration // offsets from the schedule start
	latency   time.Duration
	late      time.Duration
	busy      bool
	notSent   bool
	status    int
	err       error
	// startKind and simMS come from a validated invoke response.
	startKind string
	simMS     float64
}

func (o *outcome) ok() bool {
	return !o.notSent && o.err == nil && o.status >= 200 && o.status < 300
}

// clientSpanNames names the root span of each kind of traced request.
var clientSpanNames = map[opKind]string{opInvoke: "client", opRegister: "client.register", opStats: "client.stats"}

var errNotSent = errors.New("not sent before the window deadline")

// loadgen drives per-sender schedules open loop. Each sender owns one
// http.Client limited to one connection, so the load uses at most as many
// connections as senders.
type loadgen struct {
	clients []*http.Client
	// validate checks a 2xx response body and may fill out.
	validate func(o *op, body []byte, out *outcome) error
	// sleep waits until an op is due; time.Sleep unless a test injects
	// oversleep.
	sleep func(time.Duration)
	rec   *recorder
}

func newLoadgen(senders int) *loadgen {
	g := &loadgen{sleep: time.Sleep}
	for i := 0; i < senders; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 15 * time.Second,
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

// close drops the senders' idle connections.
func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run executes sched[i] on sender i, starting now, and waits for every
// sender. Ops still unsent past deadline are marked notSent.
func (g *loadgen) run(ctx context.Context, sched [][]op, deadline time.Duration) [][]outcome {
	out := make([][]outcome, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range sched {
		out[i] = make([]outcome, len(sched[i]))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.sender(ctx, g.clients[i%len(g.clients)], start, sched[i], out[i], deadline)
		}(i)
	}
	wg.Wait()
	return out
}

func (g *loadgen) sender(ctx context.Context, c *http.Client, start time.Time, ops []op, outs []outcome, deadline time.Duration) {
	prevEnd := time.Duration(-1)
	var head opKind // kind of the op that began the sender's current backlog
	for i := range ops {
		o, out := &ops[i], &outs[i]
		if ctx.Err() != nil || time.Since(start) > deadline {
			out.notSent, out.err = true, errNotSent
			continue
		}
		var req *http.Request
		if o.local == nil {
			var err error
			req, err = http.NewRequestWithContext(ctx, o.method, o.url, bytes.NewReader(o.body))
			if err != nil {
				out.err = err
				continue
			}
			req.Header.Set("Content-Type", "application/json")
		}
		out.busy = prevEnd > o.due
		if !out.busy {
			head = o.kind
			if now := time.Since(start); now < o.due {
				g.sleep(o.due - now)
			}
		}
		var reqID, spanID, spanStart int64
		if g.rec != nil && req != nil && o.traced {
			reqID, spanID = g.rec.newID(), g.rec.newID()
			req.Header.Set(reqIDHeader, strconv.FormatInt(reqID, 10))
			req.Header.Set(reqSpanHeader, strconv.FormatInt(spanID, 10))
			spanStart = g.rec.now()
		}
		t0 := time.Now()
		out.sent = t0.Sub(start)
		var body []byte
		if o.local != nil {
			out.err = o.local()
			out.status = http.StatusOK
		} else {
			body, out.status, out.err = do(c, req)
		}
		tEnd := time.Now()
		out.end = tEnd.Sub(start)
		switch {
		case !out.busy:
			out.latency = tEnd.Sub(t0)
			out.late = max(out.sent-o.due, 0)
		case head == o.kind:
			out.latency = out.end - o.due
		default:
			out.latency = tEnd.Sub(t0)
		}
		if reqID != 0 {
			g.rec.add(span{ID: spanID, Req: reqID, Name: clientSpanNames[o.kind], Start: spanStart, End: g.rec.now()})
		}
		if out.err == nil && out.status >= 200 && out.status < 300 && g.validate != nil && o.local == nil {
			out.err = g.validate(o, body, out)
		}
		prevEnd = time.Since(start)
	}
}

func do(c *http.Client, req *http.Request) ([]byte, int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, resp.StatusCode, err
}

// poissonTimes returns the arrival offsets of a Poisson process of the given
// rate over [0, dur), drawn from rng.
func poissonTimes(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

// window summarizes the outcomes of one schedule run for the given kind.
type window struct {
	offered, ok, failed int
	latencies, lates    []time.Duration
	span                time.Duration // max(nominal length, last completion)
	nominal             time.Duration
}

func summarize(sched [][]op, outs [][]outcome, kind opKind, nominal time.Duration) window {
	w := window{nominal: nominal, span: nominal}
	for i := range sched {
		for j := range sched[i] {
			if sched[i][j].kind != kind {
				continue
			}
			o := &outs[i][j]
			w.offered++
			if o.notSent {
				w.failed++
				continue
			}
			w.span = max(w.span, o.end)
			if !o.busy {
				w.lates = append(w.lates, o.late)
			}
			if o.ok() {
				w.ok++
				w.latencies = append(w.latencies, o.latency)
			} else {
				w.failed++
			}
		}
	}
	sortDurations(w.latencies)
	sortDurations(w.lates)
	return w
}

// achieved is completed ops per second over offered ops per second.
func (w window) achieved() float64 {
	if w.offered == 0 {
		return 0
	}
	return float64(w.ok) / w.span.Seconds() / (float64(w.offered) / w.nominal.Seconds())
}
