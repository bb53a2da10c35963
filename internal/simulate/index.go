package simulate

import "time"

// This file implements the per-node routing index: incrementally-maintained
// counters that answer route()'s questions — "any warm idle container for
// fn?", "any repurposable idle container of another function?", "any free
// capacity?", "how many containers are busy?" — in O(1) per node instead of
// rescanning every container per request.
//
// # Invariants (checked against the scan router by Config.CrossCheckRouting)
//
// After expire(now) has run, for every indexed node:
//
//	busy            == #{c : c.Busy(now)}
//	busyMB          == Σ c.MemMB over busy containers
//	warm[ord(f)]    == #{c : c.Fn == f, not busy}
//	mature[ord(f)]  == #{c : c.Fn == f, not busy, now-c.LastDone ≥ minIdle}
//	matureTotal     == Σ_f mature[ord(f)]
//
// using the *current* c.LastDone field — which is deliberately stale between
// a container's BusyUntil passing and its completion event running, exactly
// like the scans: a request arriving at t == BusyUntil observes the container
// idle with the previous LastDone, because same-timestamp arrivals order
// before engine events.
//
// # Laziness
//
// Time-driven transitions (busy→idle at BusyUntil, young-idle→mature-idle at
// LastDone+minIdle) have no engine event of their own, so the index keeps
// per-node timers and drains due entries in expire(now) before any read. A
// timer is applied only if it still describes the container (state + field
// equality below); state changes invalidate stale timers for free, with no
// generation counters.
//
// Timers live in two structures chosen by their arrival order:
//
//   - busy-end timers go in a min-heap: BusyUntil values are not monotone in
//     serve order (a long request served early outlives a short one served
//     later), but the heap stays small — at most one live entry per busy
//     container;
//   - maturation timers go in a FIFO ring: every push happens at the current
//     clock T with fire time T+minIdle, so the queue is already sorted. This
//     matters — stale maturation timers accumulate for a full keep-alive
//     period (≈ request rate × minIdle entries), and heap ops over that
//     backlog dominated the indexed replay's profile before the split.
type nodeIndex struct {
	minIdle time.Duration

	busy   int
	busyMB int
	// warm counts idle containers per current function; mature counts the
	// subset whose idle age reached minIdle (repurposable, §4.2). Both are
	// dense slices keyed by the simulator-scoped function ordinal (ords) —
	// the routing hot path reads them per candidate node per request, and
	// pointer-keyed map lookups there were a top profile entry. Each
	// container caches its registration ordinal in idxOrd, so transitions
	// touch the ords map only when a container is (re)registered.
	warm        []int32
	mature      []int32
	matureTotal int
	ords        map[*Function]int32 // shared, owned by the Simulator

	timers  timerHeap  // busy-end timers only
	matureQ matureRing // maturation timers, monotone by fire time

	// nextEvict is a lower bound on the earliest time any resident container
	// can reach the keep-alive horizon; EvictExpired skips its scan before
	// then. evictSet marks the bound as computed.
	nextEvict time.Duration
	evictSet  bool
}

// Container index states (Container.idxState).
const (
	idxNone uint8 = iota // not indexed (index disabled, or removed)
	idxBusy
	idxYoung  // idle, idle age < minIdle
	idxMature // idle, idle age ≥ minIdle
)

// idxTimer is one pending transition: a busy-end timer (fires when the
// container's BusyUntil passes; valid while it is idxBusy with that exact
// BusyUntil) or a maturation timer (fires when an idle container's age
// reaches minIdle; valid while it is idxYoung with LastDone+minIdle == at).
type idxTimer struct {
	at time.Duration
	c  *Container
}

// timerHeap is a hand-rolled min-heap by `at` (same-time timers commute:
// they concern distinct container states, and stale entries are discarded by
// the validity checks regardless of order).
type timerHeap []idxTimer

func (h *timerHeap) push(t idxTimer) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].at <= (*h)[i].at {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *timerHeap) pop() idxTimer {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = idxTimer{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].at < old[small].at {
			small = l
		}
		if r < n && old[r].at < old[small].at {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// matureRing is a FIFO of maturation timers. Entries are pushed with
// monotonically non-decreasing fire times (current clock + minIdle), so the
// head is always the earliest — push and pop are O(1) with no sifting.
type matureRing struct {
	buf        []idxTimer
	head, tail int // buf[head:tail) in ring order; len(buf) is a power of two
}

func (r *matureRing) len() int { return r.tail - r.head }

func (r *matureRing) push(t idxTimer) {
	if r.tail-r.head == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail&(len(r.buf)-1)] = t
	r.tail++
}

func (r *matureRing) peek() *idxTimer { return &r.buf[r.head&(len(r.buf)-1)] }

func (r *matureRing) pop() idxTimer {
	i := r.head & (len(r.buf) - 1)
	t := r.buf[i]
	r.buf[i] = idxTimer{}
	r.head++
	return t
}

func (r *matureRing) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 64
	}
	buf := make([]idxTimer, n)
	for i, j := r.head, 0; i < r.tail; i, j = i+1, j+1 {
		buf[j] = r.buf[i&(len(r.buf)-1)]
	}
	r.tail -= r.head
	r.head = 0
	r.buf = buf
}

func (r *matureRing) reset() {
	clear(r.buf)
	r.head, r.tail = 0, 0
}

func newNodeIndex(minIdle time.Duration, ords map[*Function]int32) *nodeIndex {
	ix := &nodeIndex{minIdle: minIdle, ords: ords}
	ix.ensure(int32(len(ords)) - 1)
	return ix
}

// ordOf returns fn's counter slot, assigning the next free ordinal on first
// contact (the ords table is shared with the owning simulator's fnRuntimes).
func (ix *nodeIndex) ordOf(fn *Function) int32 {
	ord, ok := ix.ords[fn]
	if !ok {
		ord = int32(len(ix.ords))
		ix.ords[fn] = ord
	}
	ix.ensure(ord)
	return ord
}

// ensure grows the counter slices to cover ordinal `ord`.
func (ix *nodeIndex) ensure(ord int32) {
	if n := int(ord) + 1 - len(ix.warm); n > 0 {
		ix.warm = append(ix.warm, make([]int32, n)...)
		ix.mature = append(ix.mature, make([]int32, n)...)
	}
}

// warmAt and matureAt are bounds-guarded reads for the routing hot path: a
// function that never touched this node may carry an ordinal past the slices'
// current length, which simply means a zero count.
func (ix *nodeIndex) warmAt(ord int32) int32 {
	if int(ord) < len(ix.warm) {
		return ix.warm[ord]
	}
	return 0
}

func (ix *nodeIndex) matureAt(ord int32) int32 {
	if int(ord) < len(ix.mature) {
		return ix.mature[ord]
	}
	return 0
}

// expire drains due timers, moving containers busy→idle and young→mature so
// every counter reflects time `now`. Must run before any index read.
func (ix *nodeIndex) expire(now time.Duration) {
	for len(ix.timers) > 0 && ix.timers[0].at <= now {
		t := ix.timers.pop()
		c := t.c
		if c.idxState != idxBusy || c.BusyUntil != t.at || c.crashPending {
			continue // re-served, removed, or busy until its crash event
		}
		ix.busy--
		ix.busyMB -= c.MemMB
		ix.warm[c.idxOrd]++
		// Maturity is judged from the current LastDone — stale until the
		// completion event runs, matching what a same-timestamp scan sees.
		if now-c.LastDone >= ix.minIdle {
			c.idxState = idxMature
			ix.mature[c.idxOrd]++
			ix.matureTotal++
		} else {
			// No timer push needed: the add/complete that wrote the current
			// LastDone pushed a ring timer at LastDone+minIdle, and that timer
			// cannot have been popped yet (its fire time is still ahead of now).
			c.idxState = idxYoung
		}
	}
	for ix.matureQ.len() > 0 && ix.matureQ.peek().at <= now {
		t := ix.matureQ.pop()
		c := t.c
		if c.idxState != idxYoung || c.LastDone+ix.minIdle != t.at {
			continue // busy, removed, or LastDone rewritten since scheduling
		}
		c.idxState = idxMature
		ix.mature[c.idxOrd]++
		ix.matureTotal++
	}
}

// add registers a fresh idle container created at `now` (LastDone == now).
func (ix *nodeIndex) add(c *Container, now time.Duration) {
	c.idxState = idxYoung
	c.idxOrd = ix.ordOf(c.Fn)
	ix.warm[c.idxOrd]++
	ix.matureQ.push(idxTimer{at: now + ix.minIdle, c: c})
}

// remove deregisters a container in whatever state it currently is; pending
// timers for it die on their validity checks.
func (ix *nodeIndex) remove(c *Container) {
	switch c.idxState {
	case idxBusy:
		ix.busy--
		ix.busyMB -= c.MemMB
	case idxYoung:
		ix.warm[c.idxOrd]--
	case idxMature:
		ix.warm[c.idxOrd]--
		ix.mature[c.idxOrd]--
		ix.matureTotal--
	}
	c.idxState = idxNone
}

// startService moves an idle container to busy. The caller has already
// reassigned c.Fn and set c.BusyUntil; newOrd is the serving function's
// ordinal, which becomes the container's registration when it next idles
// (the decrements below use the ordinal it was idle under).
func (ix *nodeIndex) startService(c *Container, newOrd int32) {
	switch c.idxState {
	case idxYoung:
		ix.warm[c.idxOrd]--
	case idxMature:
		ix.warm[c.idxOrd]--
		ix.mature[c.idxOrd]--
		ix.matureTotal--
	default:
		//optimus:allow panicpath — cross-check oracle: index bookkeeping diverged from container state
		panic("simulate: routing index served a container it did not hold idle")
	}
	ix.ensure(newOrd)
	c.idxOrd = newOrd
	c.idxState = idxBusy
	ix.busy++
	ix.busyMB += c.MemMB
	ix.timers.push(idxTimer{at: c.BusyUntil, c: c})
}

// noteComplete runs after the completion event rewrote c.LastDone to `now`:
// a container the busy-end timer promoted to mature via the stale LastDone
// demotes back to young, and in every still-indexed state a maturation timer
// keyed to the fresh LastDone is scheduled (any timer keyed to the stale
// value fails its equality check). The idxBusy push covers both the normal
// case — the busy-end timer for this service period has not been drained yet
// — and boundary reuse, where the container is already busy again; either
// way the timer's validity check sorts it out at fire time. A container
// evicted at the busy/idle boundary is idxNone and left alone.
func (ix *nodeIndex) noteComplete(c *Container, now time.Duration) {
	switch c.idxState {
	case idxMature:
		c.idxState = idxYoung
		ix.mature[c.idxOrd]--
		ix.matureTotal--
	case idxNone:
		return
	}
	ix.matureQ.push(idxTimer{at: now + ix.minIdle, c: c})
}

// reset empties the index after a node outage wiped its containers.
func (ix *nodeIndex) reset() {
	ix.busy, ix.busyMB, ix.matureTotal = 0, 0, 0
	clear(ix.warm)
	clear(ix.mature)
	ix.timers = ix.timers[:0]
	ix.matureQ.reset()
	ix.evictSet = false
}

// expireIndex brings the node's index (if any) up to `now`.
func (n *Node) expireIndex(now time.Duration) {
	if n.idx != nil {
		n.idx.expire(now)
	}
}

// noteStartService records an idle→busy transition in the node's index.
func (n *Node) noteStartService(c *Container, newOrd int32) {
	if n.idx != nil {
		n.idx.startService(c, newOrd)
	}
}

// noteComplete records a completion's LastDone rewrite in the node's index.
func (n *Node) noteComplete(c *Container, now time.Duration) {
	if n.idx != nil {
		n.idx.noteComplete(c, now)
	}
}
