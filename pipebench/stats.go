package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule on a
// sorted copy; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// series is a sample taken over a measured window: each value with its
// offset in seconds from the window's start.
type series struct{ at, v []float64 }

func (s *series) add(at, v float64) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

// merge appends o's samples, shifting their offsets by the given seconds.
func (s *series) merge(o *series, offset float64) {
	for i, at := range o.at {
		s.add(at+offset, o.v[i])
	}
}

// windowParts is the number of equal parts a measured window is cut
// into. A rate or a percentile is computed in each part and the median
// over the parts is reported, so a burst of outside interference
// (another tenant's disk or CPU load) moves one part, not the result.
// Six parts give each of publish-large's three rounds two.
const windowParts = 6

// perPart applies f to the values of each part of a window of the given
// length and returns the median of the results.
func (s *series) perPart(window float64, f func(vs []float64, span float64) float64) float64 {
	parts := make([][]float64, windowParts)
	for i, at := range s.at {
		k := max(0, min(int(at/window*windowParts), windowParts-1))
		parts[k] = append(parts[k], s.v[i])
	}
	var per []float64
	for _, p := range parts {
		if len(p) > 0 {
			per = append(per, f(p, window/windowParts))
		}
	}
	return median(per)
}

func pct(q float64) func([]float64, float64) float64 {
	return func(vs []float64, _ float64) float64 { return quantile(vs, q) }
}

func rate(vs []float64, span float64) float64 { return float64(len(vs)) / span }

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MiB, or the runtime's total reserved memory where /proc is missing.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// stealShare returns a function that reports the share of CPU time the
// hypervisor gave to other guests (steal, from /proc/stat) since this
// call; it reports -1 where /proc/stat is missing. On a shared host the
// figure explains runs that are slow for reasons outside the program.
func stealShare() func() float64 {
	read := func() (steal, total float64, ok bool) {
		data, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0, false
		}
		line, _, _ := strings.Cut(string(data), "\n")
		fields := strings.Fields(line)
		if len(fields) < 9 || fields[0] != "cpu" {
			return 0, 0, false
		}
		for i, f := range fields[1:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return 0, 0, false
			}
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total, true
	}
	s0, t0, ok0 := read()
	return func() float64 {
		s1, t1, ok1 := read()
		if !ok0 || !ok1 || t1 <= t0 {
			return -1
		}
		return (s1 - s0) / (t1 - t0)
	}
}

// allocMeter measures the heap allocations of a code region; the
// region should be the only allocating work in the process meanwhile.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocs() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{ms.Mallocs, ms.TotalAlloc}
}

// stop returns the allocation count and MiB allocated since start.
func (a allocMeter) stop() (allocs, mb float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - a.mallocs), float64(ms.TotalAlloc-a.bytes) / (1 << 20)
}

// gcMeter reads the Go runtime's collector counters over a phase and
// samples the live heap for its peak.
type gcMeter struct {
	numGC   uint32
	pauseNS uint64
	peak    uint64
	stop    chan struct{}
	done    chan struct{}
}

func startGC() *gcMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := &gcMeter{numGC: ms.NumGC, pauseNS: ms.PauseTotalNs, peak: ms.HeapAlloc,
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				m.peak = max(m.peak, ms.HeapAlloc)
			}
		}
	}()
	return m
}

// finish stops the sampler and reports GC cycles, total pause (ms) and
// the sampled heap peak (MiB).
func (m *gcMeter) finish() (cycles, pauseMS, heapPeakMB float64) {
	close(m.stop)
	<-m.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak := max(m.peak, ms.HeapAlloc)
	return float64(ms.NumGC - m.numGC), float64(ms.PauseTotalNs-m.pauseNS) / 1e6, float64(peak) / (1 << 20)
}
