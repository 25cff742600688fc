package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xdx/internal/xmltree"
)

// Operation kinds. Only exchanges are latency samples; register and plan
// are the two calls of a tenant_fleet renegotiation.
const (
	kindExchange = "exchange"
	kindRegister = "register"
	kindPlan     = "plan"
)

const (
	// minExchanges keeps a run going past --seconds until the p95 has at
	// least minTail samples beyond it.
	minExchanges = 220
	// toggleEvery is how often a traced run switches span recording on or
	// off, so traced and untraced calls interleave over the whole run.
	toggleEvery = 500 * time.Millisecond
	// calEvery is how often the calibration kernel is timed during the
	// measured phase, for calWindow each time.
	calEvery  = 500 * time.Millisecond
	calWindow = 20 * time.Millisecond
)

// sample is one timed operation.
type sample struct {
	op   int64
	kind string
	at   time.Duration // start, since the phase began
	ms   float64
	mode int // 0 untraced, 1 traced, -1 tracing switched during the call
	// answered is true when the call returned a response; failed when it
	// did not, or when the output check after it failed.
	answered, failed bool
	attrs            exAttrs
	// Read after an exchange: the target's rows and the live sessions of
	// the tenant's two endpoints.
	rows, sessions int
}

// exAttrs are the timing and delta attributes of an ExchangeResponse.
type exAttrs struct {
	delta                                bool
	deltaRecords, tombstones             float64
	retries, resumes, deduped            float64
	payloadBytes                         float64
	sourceMs, targetMs, writeMs, indexMs float64
}

func parseAttrs(n *xmltree.Node) exAttrs {
	f := func(k string) float64 {
		v, _ := n.Attr(k)
		x, _ := strconv.ParseFloat(v, 64)
		return x
	}
	d, _ := n.Attr("delta")
	return exAttrs{
		delta: d == "1", deltaRecords: f("deltaRecords"), tombstones: f("tombstoneRecords"),
		retries: f("retries"), resumes: f("resumes"), deduped: f("deduped"),
		payloadBytes: f("payloadBytes"),
		sourceMs:     f("sourceMillis"), targetMs: f("targetMillis"), writeMs: f("writeMillis"), indexMs: f("indexMillis"),
	}
}

// phase is the measured part of a run.
type phase struct {
	samples  []sample
	start    time.Time
	busy     busyClock
	wall     time.Duration
	peakRSS  int64
	codec    string
	failures []string

	met0, met1    map[string]any
	planHits      int64 // plan cache lookups in the phase
	planMisses    int64
	srcBytes      int64 // bytes on the two hops in the phase
	tgtBytes      int64
	targetChecks  int     // end-of-run target checks made
	checkFailures int     // targets that did not reassemble to their source
	stealPct      float64 // share of the machine's CPU time stolen by the hypervisor
	iowaitPct     float64
}

func (p *phase) exchanges() []sample {
	var out []sample
	for _, s := range p.samples {
		if s.kind == kindExchange {
			out = append(out, s)
		}
	}
	return out
}

// drive runs the workload's clients as closed loops for at least dur, and
// on until minExchanges have completed (never past hardCap), then checks
// every target against its source.
func (d *deployment) drive(seed int64, dur, hardCap time.Duration, cal *calibrator) *phase {
	p := &phase{}
	p.busy.runtime = d.rec != nil
	p.met0 = d.met.Snapshot()
	hits0, misses0, _, _ := d.agency.PlanCacheStats()
	src0, tgt0 := d.hops.srcBytes.Load(), d.hops.tgtBytes.Load()
	runtime.GC()

	var epoch atomic.Int64 // odd while spans are recorded
	stopToggle := make(chan struct{})
	toggled := make(chan struct{})
	if d.rec != nil {
		go func() {
			defer close(toggled)
			t := time.NewTicker(toggleEvery)
			defer t.Stop()
			for {
				select {
				case <-stopToggle:
					d.rec.on.Store(false)
					return
				case <-t.C:
				}
				// Turn recording on before the epoch says traced, and the
				// epoch to untraced before recording stops, so a call
				// that saw one epoch throughout ran entirely in that mode.
				if epoch.Load()%2 == 0 {
					d.rec.on.Store(true)
					epoch.Add(1)
				} else {
					epoch.Add(1)
					d.rec.on.Store(false)
				}
			}
		}()
	} else {
		close(toggled)
	}

	stopCal := make(chan struct{})
	calDone := make(chan struct{})
	go func() {
		defer close(calDone)
		cal.every(calEvery, calWindow, stopCal)
	}()

	rss := startRSS(5 * time.Millisecond)
	steal := startSteal()
	total0, iowait0, _ := hostTicks()
	p.start = time.Now()
	start := p.start
	var done atomic.Int64
	var opSeq atomic.Int64
	stop := func() bool {
		el := time.Since(start)
		return el >= hardCap || (el >= dur && done.Load() >= minExchanges)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*131 + int64(c) + 1))
			mine := d.owned[c]
			next, round := 0, 0
			var local []sample
			var fails []string
			// timed runs one operation of kind on t and records its sample.
			timed := func(kind string, t *tenant, call func() (*xmltree.Node, error)) (sample, *xmltree.Node, error) {
				s := sample{op: opSeq.Add(1), kind: kind}
				e0 := epoch.Load()
				p.busy.enter()
				if d.rec != nil {
					d.rec.cur[c].Store(s.op)
				}
				t0 := time.Now()
				resp, err := call()
				el := time.Since(t0)
				if d.rec != nil {
					d.rec.add(c, kind, "", t0, 0)
					d.rec.cur[c].Store(0)
				}
				p.busy.leave()
				s.at, s.ms = t0.Sub(start), float64(el)/float64(time.Millisecond)
				s.mode = int(e0 % 2)
				if epoch.Load() != e0 {
					s.mode = -1
				}
				s.answered = err == nil
				if err != nil {
					s.failed = true
					fails = append(fails, fmt.Sprintf("%s %s: %v", kind, t.name, err))
				}
				return s, resp, err
			}
			// iteration runs one operation; it reports false when the
			// client cannot go on.
			iteration := func() bool {
				if d.wl.fleet && rng.Intn(renegotiateEvery) == 0 {
					t := d.tenants[mine[rng.Intn(len(mine))]]
					s, _, err := timed(kindRegister, t, func() (*xmltree.Node, error) {
						return nil, d.register(c, t.name, "target", t.tgtURL, t.tgtWSDL)
					})
					local = append(local, s)
					if err == nil {
						s, _, _ = timed(kindPlan, t, func() (*xmltree.Node, error) { return nil, d.plan(c, t.name) })
						local = append(local, s)
					}
					return true
				}
				t := d.tenants[mine[next%len(mine)]]
				next++
				// Untimed preparation: the target starts empty, or the
				// source takes this round's churn.
				if d.wl.delta {
					round++
					churn(t.doc, rng, churnFraction, round)
					if err := t.load([]*xmltree.Node{t.doc}); err != nil {
						fails = append(fails, "reload source: "+err.Error())
						return false
					}
				} else {
					t.tgt.Clear()
				}
				s, resp, err := timed(kindExchange, t, func() (*xmltree.Node, error) { return d.exchange(c, t) })
				if err == nil {
					s.attrs = parseAttrs(resp)
					s.rows = t.tgt.Rows()
					s.sessions = t.srcEP.Sessions().Len() + t.tgtEP.Sessions().Len()
					if s.rows != t.expectRows {
						s.failed = true
						fails = append(fails, fmt.Sprintf("exchange %s: target holds %d rows, want %d", t.name, s.rows, t.expectRows))
					}
					if c == 0 && p.codec == "" {
						p.codec, _ = resp.Attr("codec") // only client 0 writes it before wg.Wait
					}
					done.Add(1)
				}
				local = append(local, s)
				return true
			}
			for !stop() {
				// The calibrator runs its kernel only between iterations.
				cal.gate.RLock()
				ok := iteration()
				cal.gate.RUnlock()
				if !ok {
					break
				}
			}
			mu.Lock()
			p.samples = append(p.samples, local...)
			p.failures = append(p.failures, fails...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	close(stopToggle)
	<-toggled
	close(stopCal)
	<-calDone
	p.peakRSS = rss.finish()
	p.stealPct = steal()
	total1, iowait1, _ := hostTicks()
	p.iowaitPct = 100 * div(iowait1-iowait0, total1-total0)

	p.met1 = d.met.Snapshot()
	hits1, misses1, _, _ := d.agency.PlanCacheStats()
	p.planHits, p.planMisses = hits1-hits0, misses1-misses0
	p.srcBytes = d.hops.srcBytes.Load() - src0
	p.tgtBytes = d.hops.tgtBytes.Load() - tgt0

	for _, t := range d.tenants {
		ok, err := sameContents(t.src, t.tgt)
		p.targetChecks++
		if err != nil || !ok {
			msg := fmt.Sprintf("tenant %s: target does not reassemble to the source's document", t.name)
			if err != nil {
				msg += ": " + err.Error()
			}
			p.failures = append(p.failures, msg)
			p.checkFailures++
		}
	}
	return p
}
