package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

const (
	serviceTime = 2 * time.Millisecond
	stallTime   = 100 * time.Millisecond
)

// connGauge tracks the connections a server has open and the most it ever
// had open at once.
type connGauge struct {
	mu        sync.Mutex
	open, max int
}

func (g *connGauge) track(_ net.Conn, s http.ConnState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch s {
	case http.StateNew:
		g.open++
		g.max = max(g.max, g.open)
	case http.StateClosed, http.StateHijacked:
		g.open--
	}
}

// testServer answers every request after serviceTime, and requests to
// /stall after stallTime.
func testServer(t *testing.T) (*httptest.Server, *connGauge) {
	t.Helper()
	gauge := &connGauge{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(stallTime)
		} else {
			time.Sleep(serviceTime)
		}
		w.WriteHeader(http.StatusOK)
	}))
	srv.Config.ConnState = gauge.track
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, gauge
}

// everyOp schedules one invoke every gap over [0, total) on each of
// senders; the op due at stallAt (if any) goes to /stall as an op of kind
// stallKind.
func everyOp(base string, senders int, gap, total, stallAt time.Duration, stallKind opKind) schedule {
	sched := make(schedule, senders)
	for i := range sched {
		for at := time.Duration(0); at < total; at += gap {
			o := op{due: at, kind: opInvoke, method: http.MethodPost, url: base + "/invoke"}
			if stallAt > 0 && at == stallAt {
				o.kind, o.url = stallKind, base+"/stall"
			}
			sched[i] = append(sched[i], o)
		}
	}
	return sched
}

func TestScheduleIsSeeded(t *testing.T) {
	sm, err := buildModels([]*model.Graph{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	const base = "http://gw"
	pick := steadyPick(sm, newZipf(len(sm.graphs), 1.1), base)
	a := steadySchedule(pick, base, 2000, time.Second, 7)
	b := steadySchedule(pick, base, 2000, time.Second, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from seed 7 differ")
	}
	if reflect.DeepEqual(a, steadySchedule(pick, base, 2000, time.Second, 8)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	n := 0
	for _, ops := range a {
		n += len(ops)
	}
	if n < 1800 || n > 2200 {
		t.Fatalf("%d ops in 1 s at 2000 req/s", n)
	}
}

func TestQueuedRequestsAreTimedFromDue(t *testing.T) {
	srv, _ := testServer(t)
	g := newLoadgen(1)
	defer g.close()
	const gap, stallAt = 10 * time.Millisecond, 100 * time.Millisecond
	sched := everyOp(srv.URL, 1, gap, 400*time.Millisecond, stallAt, opInvoke)
	outs := g.run(context.Background(), sched, time.Second)[0]
	queued := 0
	for i, o := range sched[0] {
		out := outs[i]
		if !out.ok() {
			t.Fatalf("op at %v failed: status %d, %v", o.due, out.status, out.err)
		}
		if !out.busy {
			continue
		}
		queued++
		if out.latency != out.end-o.due {
			t.Errorf("queued op at %v: latency %v, want end - due = %v", o.due, out.latency, out.end-o.due)
		}
		if o.due == stallAt+gap && out.latency < stallTime*8/10 {
			t.Errorf("op due right after the stall waited %v, want about %v", out.latency, stallTime)
		}
	}
	// The stall holds the sender for about 100 ms: the ops due in that time
	// are sent late.
	if queued < 5 {
		t.Fatalf("%d ops queued behind a %v stall, want at least 5", queued, stallTime)
	}
	if last := outs[len(outs)-1]; last.busy {
		t.Errorf("the sender never caught up after the stall")
	}
}

func TestQueuedBehindOtherKindIsTimedFromSend(t *testing.T) {
	srv, _ := testServer(t)
	g := newLoadgen(1)
	defer g.close()
	const gap, stallAt = 10 * time.Millisecond, 100 * time.Millisecond
	sched := everyOp(srv.URL, 1, gap, 300*time.Millisecond, stallAt, opStats)
	outs := g.run(context.Background(), sched, time.Second)[0]
	queued := 0
	for i, o := range sched[0] {
		out := outs[i]
		if !out.ok() {
			t.Fatalf("op at %v failed: status %d, %v", o.due, out.status, out.err)
		}
		if o.kind != opInvoke || !out.busy {
			continue
		}
		// The backlog began with the stats read: its invokes are timed from
		// their sends, so neither the stall nor the catch-up counts.
		queued++
		if out.latency != out.end-out.sent {
			t.Errorf("invoke at %v: latency %v, want end - sent = %v", o.due, out.latency, out.end-out.sent)
		}
		if out.latency >= stallTime/2 {
			t.Errorf("invoke at %v waited %v: the stats read's %v counted against it", o.due, out.latency, stallTime)
		}
	}
	if queued < 5 {
		t.Fatalf("%d invokes queued behind a %v stats read, want at least 5", queued, stallTime)
	}
}

func TestOversleepIsLateNotLatency(t *testing.T) {
	srv, _ := testServer(t)
	g := newLoadgen(1)
	defer g.close()
	const oversleep = 10 * time.Millisecond
	g.sleep = func(d time.Duration) { time.Sleep(d + oversleep) }
	sched := everyOp(srv.URL, 1, 25*time.Millisecond, 500*time.Millisecond, 0, opInvoke)
	outs := g.run(context.Background(), sched, time.Second)
	w := summarize(sched, outs, opInvoke, 500*time.Millisecond)
	if w.failed != 0 {
		t.Fatalf("%d ops failed", w.failed)
	}
	// The first op is due at once and needs no sleep.
	if late := pct(w.lates, 50); late < oversleep {
		t.Errorf("median lateness %v, want at least the %v oversleep", late, oversleep)
	}
	if lat := pct(w.latencies, 50); lat >= oversleep {
		t.Errorf("median latency %v includes the %v oversleep", lat, oversleep)
	}
	for i, out := range outs[0] {
		if out.busy {
			t.Errorf("op %d was queued, but the sender is idle between ops", i)
		}
	}
}

func TestAtMostOneConnectionPerSender(t *testing.T) {
	srv, gauge := testServer(t)
	g := newLoadgen(2)
	defer g.close()
	// Both senders stay busy, one with a stall, so a pooled client would
	// open more connections.
	sched := everyOp(srv.URL, 2, time.Millisecond, 300*time.Millisecond, 50*time.Millisecond, opInvoke)
	outs := g.run(context.Background(), sched, 2*time.Second)
	for i := range outs {
		for j, out := range outs[i] {
			if !out.ok() {
				t.Fatalf("sender %d op %d failed: status %d, %v", i, j, out.status, out.err)
			}
		}
	}
	gauge.mu.Lock()
	defer gauge.mu.Unlock()
	if gauge.max > 2 {
		t.Fatalf("%d connections open at once, want at most 2", gauge.max)
	}
}
