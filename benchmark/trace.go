package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
)

// Request-tracing headers. The client sets both; every traced handler reads
// the parent span from reqSpanHeader and overwrites it with its own span ID
// before calling the next handler, so the gateway under a proxy and the owner
// proxy behind a forward (Proxy.forward copies request headers) find their
// parent without any change to the program.
const (
	reqIDHeader   = "X-Bench-Req"
	reqSpanHeader = "X-Bench-Span"
)

// span is one timed interval: a request's pass through one layer, a replay
// step or a set-up step. Times are nanoseconds since the recorder's base.
// Parent is 0 for a root; spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in a slice allocated up front; spans past its capacity
// are counted and dropped so recording never allocates on the measured path.
// A nil *recorder records nothing.
type recorder struct {
	base    time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity)}
}

// now returns the recorder clock: nanoseconds since its base.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// step times f as a span named name under parent (0 for a root), passing f
// the span's ID so nested steps can name it as their parent, and returns the
// duration. With a nil recorder it only times f, and the ID is 0.
func (r *recorder) step(name string, parent, req int64, f func(id int64)) time.Duration {
	var id int64
	if r != nil {
		id = r.newID()
	}
	t0 := time.Now()
	f(id)
	d := time.Since(t0)
	if r != nil {
		start := int64(t0.Sub(r.base))
		r.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: start + int64(d)})
	}
	return d
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// traced wraps next so that requests carrying reqIDHeader record a span named
// name. A proxy span for a request another gateway already routed is named
// name+".owner", which tells the entry hop from the owner hop.
func traced(rec *recorder, name string, next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(reqSpanHeader), 10, 64)
		n := name
		if r.Header.Get(controlplane.ForwardedHeader) != "" {
			n += ".owner"
		}
		id := rec.newID()
		r.Header.Set(reqSpanHeader, strconv.FormatInt(id, 10))
		start := rec.now()
		next.ServeHTTP(w, r)
		rec.add(span{ID: id, Parent: parent, Req: req, Name: n, Start: start, End: rec.now()})
	})
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeJSONLFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSONL(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes returns each span's self time, keyed by span ID. A span's
// effective interval is its own clipped to its parent's effective interval;
// its self time is the length of that interval minus the length of the union
// of its children's effective intervals. Along a chain of nested calls the
// self times therefore add up to the root's duration; children that overlap
// each other (parallel work) are counted once in their parent.
func selfTimes(spans []span) map[int64]int64 {
	byID := make(map[int64]int, len(spans))
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	for i, s := range spans {
		if _, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[int64]int64, len(spans))
	var visit func(i int, lo, hi int64)
	visit = func(i int, lo, hi int64) {
		s := spans[i]
		lo, hi = max(lo, s.Start), min(hi, s.End)
		if hi < lo {
			hi = lo
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			clo, chi := max(lo, spans[c].Start), min(hi, spans[c].End)
			if chi > clo {
				ivs = append(ivs, iv{clo, chi})
			}
			visit(c, lo, hi)
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end int64
		end = lo
		for _, v := range ivs {
			if v.lo > end {
				end = v.lo
			}
			if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		self[s.ID] = (hi - lo) - covered
	}
	for i, s := range spans {
		if _, ok := byID[s.Parent]; !ok || s.Parent == 0 {
			visit(i, s.Start, s.End)
		}
	}
	return self
}

// selfSumError returns, over every request whose root span is named root,
// the largest relative gap between the request's summed self times and the
// root's duration.
func selfSumError(spans []span, root string) float64 {
	self := selfTimes(spans)
	sums := map[int64]int64{}
	rootDur := map[int64]int64{}
	for _, s := range spans {
		sums[s.Req] += self[s.ID]
		if s.Name == root && s.Parent == 0 {
			rootDur[s.Req] = s.dur()
		}
	}
	worst := 0.0
	for req, d := range rootDur {
		if d <= 0 {
			continue
		}
		gap := float64(sums[req]-d) / float64(d)
		if gap < 0 {
			gap = -gap
		}
		worst = max(worst, gap)
	}
	return worst
}
