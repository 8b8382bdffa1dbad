package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// allocCounter reads the process's cumulative heap allocation counters.
// ReadMemStats stops the world, so it is read only at window edges.
type allocCounter struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNS        uint64
}

func readAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

func (a allocCounter) since(b allocCounter) allocCounter {
	return allocCounter{
		mallocs: a.mallocs - b.mallocs,
		bytes:   a.bytes - b.bytes,
		gcs:     a.gcs - b.gcs,
		pauseNS: a.pauseNS - b.pauseNS,
	}
}

func (a allocCounter) plus(b allocCounter) allocCounter {
	return allocCounter{
		mallocs: a.mallocs + b.mallocs,
		bytes:   a.bytes + b.bytes,
		gcs:     a.gcs + b.gcs,
		pauseNS: a.pauseNS + b.pauseNS,
	}
}

// heapSampler samples the in-use heap (bytes in heap objects, live or
// not yet collected) by polling runtime/metrics, which does not stop
// the world.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapObjectsMetric}}
	read := func() {
		metrics.Read(sample)
		h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler goroutine and returns the
// 90th percentile of the samples in bytes, the height the heap reaches
// in a typical GC cycle, with the sample count. The maximum would ride
// on the timing of a single cycle.
func (h *heapSampler) Stop() (float64, int) {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.9), len(h.samples)
}
