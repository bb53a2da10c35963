package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// pct returns the nearest-rank p-th percentile of sorted, or 0 when empty.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler records the peak of the heap's objects, live and not yet
// collected, read from runtime/metrics every 100 ms until stop. The peak
// depends on where GC cycles fall and varied by up to ±9% from run to run on
// serve-steady, so it is a per-layer metric; liveHeapMB is the bounded one.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	peak  uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjects}}
	read := func() {
		metrics.Read(sample)
		v := sample[0].Value.Uint64()
		h.mu.Lock()
		h.peak = max(h.peak, v)
		h.mu.Unlock()
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// gcState is a GC counter snapshot; sub gives the cycles and total pause
// between two snapshots.
type gcState struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcState {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcState{cycles: m.NumGC, pause: time.Duration(m.PauseTotalNs)}
}

func (a gcState) sub(b gcState) (cycles float64, pauseMS float64) {
	return float64(a.cycles - b.cycles), ms(a.pause - b.pause)
}

// liveHeapMB forces a full GC and returns the heap still in use, in MB.
// Callers keep the state they measure referenced across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
