package main

import (
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples. It refuses a
// quantile with fewer than minTail samples beyond it, since such a tail is
// set by a handful of outliers.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[k], nil
}

// median of samples, without the tail requirement.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// busyClock accumulates the wall time and process CPU time during which at
// least one timed call is in flight, so the benchmark's own untimed work
// between calls (clears, churn, checks) is left out. With runtime set it
// also accumulates heap allocation, GC cycles and GC pause time over the
// same intervals.
type busyClock struct {
	runtime bool

	mu    sync.Mutex
	n     int
	since time.Time
	cpu0  time.Duration
	rt0   rtCounters
	wall  time.Duration
	cpu   time.Duration
	rt    rtCounters
}

func (b *busyClock) enter() {
	b.mu.Lock()
	if b.n == 0 {
		b.since, b.cpu0 = time.Now(), processCPU()
		if b.runtime {
			b.rt0 = readRuntime()
		}
	}
	b.n++
	b.mu.Unlock()
}

func (b *busyClock) leave() {
	b.mu.Lock()
	b.n--
	if b.n == 0 {
		b.wall += time.Since(b.since)
		b.cpu += processCPU() - b.cpu0
		if b.runtime {
			r := readRuntime()
			b.rt.allocBytes += r.allocBytes - b.rt0.allocBytes
			b.rt.gcCycles += r.gcCycles - b.rt0.gcCycles
			b.rt.gcPauseS += r.gcPauseS - b.rt0.gcPauseS
		}
	}
	b.mu.Unlock()
}

// rtCounters are cumulative Go runtime counters.
type rtCounters struct {
	allocBytes, gcCycles, gcPauseS float64
}

// readRuntime reads the runtime's cumulative heap allocation, GC cycle
// count and GC pause time. Pause time comes from a histogram, so each
// pause counts at the midpoint of its bucket.
func readRuntime() rtCounters {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	rtmetrics.Read(s)
	var r rtCounters
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		r.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == rtmetrics.KindUint64 {
		r.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == rtmetrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			r.gcPauseS += float64(n) * (lo + hi) / 2
		}
	}
	return r
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler records the largest resident set size seen while it runs.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64
}

func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := residentBytes(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in bytes.
func (s *rssSampler) finish() int64 {
	close(s.stop)
	<-s.done
	if v := residentBytes(); v > s.peak {
		s.peak = v
	}
	return s.peak
}

// residentBytes reads the process's resident set size from /proc.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// startSteal starts measuring the share of the machine's CPU time the
// hypervisor steals; the returned function reports it, in percent, since
// the call.
func startSteal() func() float64 {
	total0, _, steal0 := hostTicks()
	return func() float64 {
		total1, _, steal1 := hostTicks()
		return 100 * div(steal1-steal0, total1-total0)
	}
}

// hostTicks reads the machine-wide CPU time counters of /proc/stat: total,
// iowait and steal ticks. Steal is time the hypervisor ran something else
// on this machine's CPUs.
func hostTicks() (total, iowait, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		total += n
		switch i {
		case 4:
			iowait = n
		case 7:
			steal = n
		}
	}
	return total, iowait, steal
}
