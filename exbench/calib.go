package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Machine-speed calibration. A shared virtual machine can change speed by a
// quarter or more from one minute to the next, and such a change moves
// every timing of a run together. So a run also times a fixed
// calibration kernel, and reports its timings scaled to the speed at which
// that kernel takes refKernelMs: time × refKernelMs / kernel time.
// Wall-clock timings also lose the hypervisor's steal share (see scales). A
// change to the program moves the scaled figures as it moves the raw ones;
// a change in the machine's speed moves both the raw figures and the
// kernel, and cancels. The raw figures are in the run's metadata.

// refKernelMs is about the kernel's median pass time on the machine the
// bounds were set on: a 2-vCPU x86-64 guest, go1.24.
const refKernelMs = 0.8

// kernelState is the calibration kernel's preallocated working set: the
// kernel allocates nothing, so its time does not depend on how much heap
// the program under test holds.
type kernelState struct {
	buf  []byte
	src  []int
	xs   []int
	m    map[int]int
	keys []int
}

func newKernelState() *kernelState {
	rng := rand.New(rand.NewSource(1))
	k := &kernelState{buf: make([]byte, 64<<10), src: make([]int, 8000), xs: make([]int, 8000),
		m: make(map[int]int, 4000), keys: make([]int, 4000)}
	rng.Read(k.buf)
	for i := range k.src {
		k.src[i] = rng.Int()
	}
	for i := range k.keys {
		k.keys[i] = rng.Int()
	}
	return k
}

// run is one pass of the kernel: hashing, sorting and map updates, all
// standard-library code whose cost depends on the machine and the Go
// toolchain only.
func (k *kernelState) run() {
	sum := sha256.Sum256(k.buf)
	k.buf[0] ^= sum[0]
	copy(k.xs, k.src)
	sort.Ints(k.xs)
	clear(k.m)
	for i, key := range k.keys {
		k.m[key] = i
	}
}

// calibrator measures the kernel now and then during a run. Calls into the
// program hold gate for reading; a measurement holds it for writing, so the
// kernel runs while no call is in flight and delays no timed call.
type calibrator struct {
	gate    sync.RWMutex
	states  []*kernelState
	mu      sync.Mutex
	samples []calSample
}

// calSample is one measurement: the median kernel pass in ms, when, and
// the machine's cumulative total and steal CPU ticks at that moment.
type calSample struct {
	at           time.Time
	ms           float64
	total, steal float64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c.states = append(c.states, newKernelState())
	}
	return c
}

// measure runs the kernel on every CPU at once for window and records the
// median pass time in ms. The median leaves out passes that the program's
// own background work (a GC cycle, a journal flush) happened to slow.
func (c *calibrator) measure(window time.Duration) {
	c.gate.Lock()
	defer c.gate.Unlock()
	var mu sync.Mutex
	var times []float64
	var wg sync.WaitGroup
	start := time.Now()
	for _, k := range c.states {
		wg.Add(1)
		go func(k *kernelState) {
			defer wg.Done()
			var mine []float64
			for time.Since(start) < window {
				t0 := time.Now()
				k.run()
				mine = append(mine, float64(time.Since(t0))/float64(time.Millisecond))
			}
			mu.Lock()
			times = append(times, mine...)
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	total, _, steal := hostTicks()
	c.mu.Lock()
	c.samples = append(c.samples, calSample{at: time.Now(), ms: median(times), total: total, steal: steal})
	c.mu.Unlock()
}

// every measures every interval until stop is closed, and returns once the
// last measurement has ended.
func (c *calibrator) every(interval, window time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.measure(window)
		}
	}
}

// scale is the factor that converts a time measured between from and to
// to the reference machine's speed, from the median of the samples taken
// in that interval; a zero interval takes every sample.
func (c *calibrator) scale(from, to time.Time) float64 {
	var ms []float64
	for _, s := range c.within(from, to) {
		ms = append(ms, s.ms)
	}
	if len(ms) == 0 {
		return 1
	}
	return refKernelMs / median(ms)
}

// wallScale is scale times one minus the share of the machine's CPU time
// stolen between the first and last sample of the interval.
func (c *calibrator) wallScale(from, to time.Time) float64 {
	in := c.within(from, to)
	if len(in) < 2 {
		return c.scale(from, to)
	}
	first, last := in[0], in[len(in)-1]
	return c.scale(from, to) * (1 - div(last.steal-first.steal, last.total-first.total))
}

func (c *calibrator) within(from, to time.Time) []calSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []calSample
	for _, s := range c.samples {
		if from.IsZero() || (!s.at.Before(from) && !s.at.After(to)) {
			out = append(out, s)
		}
	}
	return out
}

// kernelMs lists the measurements in ms.
func (c *calibrator) kernelMs() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.samples))
	for i, s := range c.samples {
		out[i] = s.ms
	}
	return out
}
