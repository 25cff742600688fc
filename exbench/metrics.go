package main

import (
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counts tallies a phase for the result line: every timed operation and
// every end-of-run target check is one attempt.
func (p *phase) counts() (attempted, failed int) {
	for _, s := range p.samples {
		attempted++
		if s.failed {
			failed++
		}
	}
	return attempted + p.targetChecks, failed + p.checkFailures
}

// completed returns the exchanges that answered, whether or not their
// output check passed.
func completed(ex []sample) []sample {
	var out []sample
	for _, s := range ex {
		if s.answered {
			out = append(out, s)
		}
	}
	return out
}

func latencies(ex []sample) []float64 {
	out := make([]float64, len(ex))
	for i, s := range ex {
		out[i] = s.ms
	}
	return out
}

// endToEnd computes the metrics a user of the system sees, from an
// untraced run.
func endToEnd(p *phase, setupS float64) (metrics, error) {
	ok := completed(p.exchanges())
	lat := latencies(ok)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(lat, 0.95)
	if err != nil {
		return nil, err
	}
	n := float64(len(ok))
	attempted, failed := p.counts()
	m := metrics{}
	m.set("setup_s", "s", setupS)
	m.set("exchange_p50_ms", "ms", p50)
	m.set("exchange_p95_ms", "ms", p95)
	m.set("exchanges_per_s", "1/s", div(n, p.busy.wall.Seconds()))
	m.set("cpu_ms_per_exchange", "ms", div(float64(p.busy.cpu)/float64(time.Millisecond), n))
	m.set("wire_bytes_per_exchange", "B", div(float64(p.srcBytes+p.tgtBytes), n))
	m.set("peak_rss_mb", "MiB", float64(p.peakRSS)/(1<<20))
	m.set("ok_ratio", "1", float64(attempted-failed)/float64(attempted))
	return m, nil
}

// scales converts raw end-to-end timings to the reference machine. cpu is
// the calibration kernel's factor. wall and setup also take out the share
// of the machine's CPU time the hypervisor stole during the measured phase
// and during set-up: wall-clock time stretches with it, process CPU time
// does not.
type scales struct{ cpu, wall, setup float64 }

// scaled converts raw end-to-end metrics to the reference machine's speed;
// a rate is divided by its factor, a time multiplied.
func scaled(raw metrics, f scales) metrics {
	m := metrics{}
	for name, v := range raw {
		switch name {
		case "exchange_p50_ms", "exchange_p95_ms":
			v.Value *= f.wall
		case "exchanges_per_s":
			v.Value /= f.wall
		case "cpu_ms_per_exchange":
			v.Value *= f.cpu
		case "setup_s":
			v.Value *= f.setup
		}
		m[name] = v
	}
	return m
}

// counter reads a counter or gauge from a registry snapshot.
func counter(snap map[string]any, name string) float64 {
	if v, ok := snap[name].(int64); ok {
		return float64(v)
	}
	return 0
}

// histSum reads a histogram's sum and count from a registry snapshot.
func histSum(snap map[string]any, name string) (sum, count float64) {
	h, ok := snap[name].(map[string]any)
	if !ok {
		return 0, 0
	}
	s, _ := h["sum"].(float64)
	c, _ := h["count"].(int64)
	return s, float64(c)
}

// covered is how much of [from, to] the spans cover, overlaps counted once.
func covered(spans []span, from, to float64) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, from
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// endpointActions are the endpoint SOAP operations calls are counted by.
var endpointActions = []string{
	"ExecuteSource", "ExecuteTarget", "DeltaStatus", "SessionStatus", "EndSession",
	"GetWSDL", "ProbeStats", "ProbeCost",
}

// perLayer computes the per-layer metrics of a traced run. Span-derived
// figures are means over the exchanges that ran entirely traced; counter
// figures cover the whole measured phase and are divided by every
// exchange that completed in it.
func perLayer(p *phase, d *deployment, rec *recorder) (metrics, error) {
	all := completed(p.exchanges())
	var traced, untraced []sample
	for _, s := range all {
		switch s.mode {
		case 1:
			traced = append(traced, s)
		case 0:
			untraced = append(untraced, s)
		}
	}
	tracedP50, err := percentile(latencies(traced), 0.5)
	if err != nil {
		return nil, err
	}
	untracedP50, err := percentile(latencies(untraced), 0.5)
	if err != nil {
		return nil, err
	}

	byOp := map[int64][]span{}
	rec.mu.Lock()
	for _, s := range rec.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	rec.mu.Unlock()

	// Sums over the fully traced exchanges.
	var agencyMs, agencySelf, srcHop, tgtHop, overhead float64
	var epSrc, epTgt, epSrcSelf, epTgtSelf float64
	var scanMs, scanRecs, loadMs, loadRecs, indexMs, srcSlice, tgtSlice float64
	for _, s := range traced {
		var agency, hops []span
		var scan float64
		for _, sp := range byOp[s.op] {
			switch {
			case sp.Name == "agency":
				agency = append(agency, sp)
			case strings.HasPrefix(sp.Name, "hop."):
				hops = append(hops, sp)
				if sp.Role == "source" {
					srcHop += sp.ms()
				} else {
					tgtHop += sp.ms()
				}
				overhead += sp.ms()
			case strings.HasPrefix(sp.Name, "endpoint."):
				overhead -= sp.ms()
				switch sp.Name {
				case "endpoint.ExecuteSource":
					epSrc += sp.ms()
				case "endpoint.ExecuteTarget":
					epTgt += sp.ms()
				}
			case sp.Name == "relstore.scan":
				scan += sp.ms()
				scanRecs += float64(sp.Recs)
			case sp.Name == "relstore.load":
				loadMs += sp.ms()
				loadRecs += float64(sp.Recs)
			case sp.Name == "relstore.index":
				indexMs += sp.ms()
			}
		}
		for _, a := range agency {
			agencyMs += a.ms()
			agencySelf += a.ms() - covered(hops, a.Start, a.End)
		}
		scanMs += scan
		a := s.attrs
		srcSlice += a.sourceMs - scan
		tgtSlice += a.targetMs
		epSrcSelf -= a.sourceMs
		epTgtSelf -= a.targetMs + a.writeMs + a.indexMs
	}
	epSrcSelf += epSrc
	epTgtSelf += epTgt

	// Calls and plan derivations over every fully traced operation.
	calls := map[string]float64{}
	var planMs, plans float64
	for _, s := range p.samples {
		if s.mode != 1 || !s.answered {
			continue
		}
		for _, sp := range byOp[s.op] {
			if strings.HasPrefix(sp.Name, "endpoint.") {
				calls[strings.TrimPrefix(sp.Name, "endpoint.")]++
			}
			if s.kind == kindPlan && sp.Name == "agency" {
				planMs += sp.ms()
				plans++
			}
		}
	}

	nt := float64(len(traced))
	n := float64(len(all))
	var payload, deltas, deltaRecs, tombs, retries, resumes, deduped float64
	for _, s := range all {
		a := s.attrs
		payload += a.payloadBytes
		if a.delta {
			deltas++
		}
		deltaRecs += a.deltaRecords
		tombs += a.tombstones
		retries += a.retries
		resumes += a.resumes
		deduped += a.deduped
	}
	delta := func(name string) float64 { return counter(p.met1, name) - counter(p.met0, name) }
	histDelta := func(name string) (sum, count float64) {
		s1, c1 := histSum(p.met1, name)
		s0, c0 := histSum(p.met0, name)
		return s1 - s0, c1 - c0
	}

	m := metrics{}
	m.set("registry.exchange_ms", "ms", div(agencyMs, nt))
	m.set("registry.self_ms", "ms", div(agencySelf, nt))
	m.set("registry.plan_ms", "ms", div(planMs, plans))
	hits, misses := float64(p.planHits), float64(p.planMisses)
	m.set("registry.plan_cache_hit_ratio", "1", div(hits, hits+misses))
	waitSum, waitN := histDelta("sched.wait.millis")
	m.set("registry.sched_wait_ms", "ms", div(waitSum, waitN))
	requested := 0.0
	if d.wl.delta {
		requested = n
	}
	m.set("registry.delta_ratio", "1", div(deltas, requested))
	m.set("registry.delta_records_per_exchange", "count", div(deltaRecs, n))
	m.set("registry.tombstones_per_exchange", "count", div(tombs, n))

	m.set("core.source_slice_ms", "ms", div(srcSlice, nt))
	m.set("core.target_slice_ms", "ms", div(tgtSlice, nt))

	m.set("relstore.scan_ms", "ms", div(scanMs, nt))
	m.set("relstore.scan_records_per_exchange", "count", div(scanRecs, nt))
	m.set("relstore.load_ms", "ms", div(loadMs, nt))
	m.set("relstore.load_records_per_exchange", "count", div(loadRecs, nt))
	m.set("relstore.index_ms", "ms", div(indexMs, nt))

	m.set("endpoint.source_ms", "ms", div(epSrc, nt))
	m.set("endpoint.source_self_ms", "ms", div(epSrcSelf, nt))
	m.set("endpoint.target_ms", "ms", div(epTgt, nt))
	m.set("endpoint.target_self_ms", "ms", div(epTgtSelf, nt))
	total := 0.0
	for _, a := range endpointActions {
		m.set("endpoint.calls_per_exchange."+a, "count", div(calls[a], nt))
		total += calls[a]
	}
	m.set("endpoint.calls_per_exchange", "count", div(total, nt))

	m.set("soap.source_hop_ms", "ms", div(srcHop, nt))
	m.set("soap.target_hop_ms", "ms", div(tgtHop, nt))
	m.set("soap.overhead_ms", "ms", div(overhead, nt))
	m.set("soap.faults", "count", delta("soap.server.faults"))

	m.set("wire.source_hop_bytes", "B", div(float64(p.srcBytes), n))
	m.set("wire.target_hop_bytes", "B", div(float64(p.tgtBytes), n))
	m.set("wire.bytes_per_payload_byte", "1", div(float64(p.srcBytes+p.tgtBytes), payload))
	enc, _ := histDelta("wire.encode.render_ms")
	dec, _ := histDelta("wire.decode.parse_ms")
	m.set("wire.encode_ms", "ms", div(enc, n))
	m.set("wire.decode_ms", "ms", div(dec, n))

	m.set("reliable.retries_per_exchange", "count", div(retries, n))
	m.set("reliable.resumes_per_exchange", "count", div(resumes, n))
	m.set("reliable.deduped_records", "count", deduped)
	live := 0
	for _, t := range d.tenants {
		live += t.srcEP.Sessions().Len() + t.tgtEP.Sessions().Len()
	}
	m.set("reliable.sessions_live_end", "count", float64(live))

	appends, fsyncs := delta("wal.appends"), delta("wal.fsyncs")
	m.set("durable.appends_per_exchange", "count", div(appends, n))
	m.set("durable.fsyncs_per_exchange", "count", div(fsyncs, n))
	m.set("durable.frames_per_fsync", "count", div(appends, fsyncs))
	m.set("durable.bytes_per_payload_byte", "1", div(delta("wal.append.bytes"), payload))
	m.set("durable.batch_stalls", "count", delta("wal.batch.stalls"))
	m.set("durable.snapshots", "count", delta("wal.snapshots"))

	rt := p.busy.rt
	m.set("runtime.alloc_bytes_per_exchange", "B", div(rt.allocBytes, n))
	m.set("runtime.gc_cycles_per_exchange", "count", div(rt.gcCycles, n))
	m.set("runtime.gc_pause_ms", "ms", div(rt.gcPauseS*1000, n))

	m.set("trace.overhead_pct", "%", (tracedP50/untracedP50-1)*100)
	return m, nil
}

// steadyState compares the first and last quarter of a run's exchanges:
// their median latency (corrected by the calibration samples and the steal
// share of each quarter), the target row count and the live sessions left after
// each exchange. A run whose latency or rows move by more than steadyBound,
// or whose live sessions grow, is not in a steady state.
type steadyState struct {
	P50FirstMs    float64   `json:"p50_first_quarter_ms"`
	P50LastMs     float64   `json:"p50_last_quarter_ms"`
	RowsFirst     float64   `json:"rows_first_quarter"`
	RowsLast      float64   `json:"rows_last_quarter"`
	SessionsFirst int       `json:"sessions_first_quarter_max"`
	SessionsLast  int       `json:"sessions_last_quarter_max"`
	P50ByTenthMs  []float64 `json:"p50_by_tenth_ms"`
	OK            bool      `json:"ok"`
}

// steadyBound is the exchange_p50_ms bound of BENCHMARK.json.
const steadyBound = 0.25

func checkSteady(p *phase, cal *calibrator) steadyState {
	ex := completed(p.exchanges())
	sort.Slice(ex, func(i, j int) bool { return ex[i].at < ex[j].at })
	q := len(ex) / 4
	first, last := ex[:q], ex[len(ex)-q:]
	rows := func(ss []sample) float64 {
		t := 0.0
		for _, s := range ss {
			t += float64(s.rows)
		}
		return div(t, float64(len(ss)))
	}
	maxSess := func(ss []sample) int {
		m := 0
		for _, s := range ss {
			if s.sessions > m {
				m = s.sessions
			}
		}
		return m
	}
	// quarterP50 is a quarter's median latency at reference speed.
	quarterP50 := func(ss []sample) float64 {
		if len(ss) == 0 {
			return 0
		}
		from := p.start.Add(ss[0].at)
		to := p.start.Add(ss[len(ss)-1].at + time.Duration(ss[len(ss)-1].ms*float64(time.Millisecond)))
		return median(latencies(ss)) * cal.wallScale(from, to)
	}
	st := steadyState{
		P50FirstMs: quarterP50(first), P50LastMs: quarterP50(last),
		RowsFirst: rows(first), RowsLast: rows(last),
		SessionsFirst: maxSess(first), SessionsLast: maxSess(last),
	}
	for i := 0; i < 10; i++ {
		st.P50ByTenthMs = append(st.P50ByTenthMs, median(latencies(ex[i*len(ex)/10:(i+1)*len(ex)/10])))
	}
	drift := func(a, b float64) float64 { return div(b-a, a) }
	st.OK = q > 0 &&
		abs(drift(st.P50FirstMs, st.P50LastMs)) <= steadyBound &&
		abs(drift(st.RowsFirst, st.RowsLast)) <= steadyBound &&
		st.SessionsLast <= st.SessionsFirst
	return st
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
