package registry

// The exchange drive. Every exchange runs through internal/reliable under
// the options' reliability config:
//
//   - the source call is retried wholesale under backoff — it is idempotent
//     (the source recomputes its slice), so each attempt scans into fresh
//     state;
//   - the target delivery is a resumable session: the shipment travels as
//     seq-numbered chunks, a torn delivery is resumed from the chunk
//     checkpoint the target acked via SessionStatus, and the target's
//     ledger dedups any overlap, so the loaded instances are byte-identical
//     to a fault-free run;
//   - every attempt passes the endpoint's circuit breaker, and the whole
//     exchange shares one retry budget and deadline.
//
// The plain exchange (no config) is the same drive with one attempt per
// call: a dropped connection, a stalled stream, or an injected 5xx fails
// it, and nothing is retried or resumed.
//
// The agency relays. It plans the exchange but is not one of its
// computation nodes (§4.1 charges computation to S and T and
// communication to the cross-edges), so it decodes no shipment: it asks
// the source for the session's chunking (chunk="N"), keeps the sequenced
// chunks exactly as they arrived, and writes them into the target session
// byte for byte, skipping the acked ones on a resume. The target hop
// therefore carries the source's negotiated codec, and the target's
// decoder is the one that validates every chunk. A delta exchange relays
// too: change detection runs at the source, which diffs its fresh output
// against the snapshot the agency names as the target's base and ships
// only added or changed records plus tombstone chunks, so both hops scale
// with churn rather than snapshot size. The agency keeps just the token
// of the snapshot the target last acked. The two hops stay sequential, so
// retry, resume, breaker and dedup behave alike on both kinds.

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"xdx/internal/netsim"
	"xdx/internal/obs"
	"xdx/internal/reliable"
	"xdx/internal/soap"
	"xdx/internal/wire"
	"xdx/internal/xmltree"
)

// wireExchangeObs registers the retry and breaker hooks of one exchange
// onto the options' observability sinks. A shared breaker set (one the
// caller passed in via Config.Breakers) is left alone — its owner wires
// it once, so per-exchange callbacks don't stack up.
func wireExchangeObs(ex *reliable.Exchange, opts ExecOptions) {
	met, log := opts.Metrics, obs.OrNop(opts.Logger)
	if met == nil && opts.Logger == nil {
		return
	}
	ex.Retrier().OnRetry = func(op string, try int, delay time.Duration, err error) {
		met.Counter("exchange.retries").Inc()
		log.Log(obs.LevelWarn, "retrying call",
			"op", op, "try", try, "delayMillis", delay.Milliseconds(), "err", err.Error())
	}
	if !ex.SharedBreakers() {
		ex.Breakers().OnStateChange(func(url string, from, to reliable.BreakerState) {
			met.Counter("exchange.breaker.transitions").Inc()
			log.Log(obs.LevelInfo, "breaker state change",
				"url", url, "from", from.String(), "to", to.String())
		})
	}
}

// executeReliable drives an exchange end-to-end under the reliability
// config: retried source execution, resumable chunked target delivery.
// The source cuts its shipment into the session's sequenced chunks —
// on a delta-enabled exchange, only what changed since the base the
// agency names — and the agency keeps them verbatim and forwards them
// byte for byte, never decoding a record.
func (a *Agency) executeReliable(service string, plan *Plan, opts ExecOptions) (*Report, error) {
	src, tgt := a.parties(service)
	if src == nil || tgt == nil {
		return nil, fmt.Errorf("registry: service %q not fully registered", service)
	}
	progXML, err := wire.EncodeProgram(plan.Program, plan.Assign)
	if err != nil {
		return nil, err
	}
	codec, err := wire.ParseCodec(opts.Codec)
	if err != nil {
		return nil, err
	}
	trace := newTrace(service, "reliable")
	report := &Report{Plan: plan, Codec: codec.String(), Trace: trace}
	ex := reliable.NewExchange(opts.Reliability)
	wireExchangeObs(ex, opts)
	cs := ex.Client(src.URL)
	advertise(cs, codec)
	ct := ex.Client(tgt.URL)
	stream, epoch := service, deltaEpoch(src, tgt)
	log := obs.OrNop(opts.Logger)

	// fetch runs the source call of one session, retried wholesale. The
	// source recomputes its slice on every attempt, so a fresh scan per
	// try keeps torn partial shipments out of the relay. A delta-enabled
	// request names the stream, epoch and session — the token the source
	// holds the fresh snapshot's hashes under — and the base to diff
	// against, if any.
	fetch := func(session, base string) (*sourceRespScan, error) {
		reqS := sourceRequest(progXML, opts)
		reqS.SetAttr("chunk", strconv.Itoa(ex.ChunkSize()))
		if opts.Delta {
			reqS.SetAttr("deltaStream", stream)
			reqS.SetAttr("epoch", epoch)
			reqS.SetAttr("session", session)
			if base != "" {
				reqS.SetAttr("base", base)
			}
		}
		var scan *sourceRespScan
		srcSpan := trace.Child("source")
		defer srcSpan.End()
		err := ex.Do("ExecuteSource", src.URL, func(try int) error {
			at := srcSpan.Child("attempt")
			at.Set("try", strconv.Itoa(try))
			defer at.End()
			scanS := &sourceRespScan{base: base}
			if err := cs.CallStream("ExecuteSource", func(w io.Writer) error {
				return xmltree.Write(w, reqS, xmltree.WriteOptions{EmitAllIDs: true})
			}, scanS); err != nil {
				scanS.release()
				at.Set("err", err.Error())
				return err
			}
			// The response scan completed, so a missing or inconsistent
			// part is a protocol defect, not a torn stream; retrying would
			// repeat it.
			if err := scanS.check(opts.Delta, session); err != nil {
				scanS.release()
				at.Set("err", err.Error())
				return reliable.Permanent(err)
			}
			scan = scanS
			return nil
		})
		if err == nil {
			report.PayloadBytes, report.SourceTime = scan.payload, parseMillis(scan.queryMillis)
			report.Delta, report.DeltaRecords, report.TombstoneRecords = scan.delta, scan.deltaRecords, scan.tombstoneRecords
			if scan.codec != "" {
				report.Codec = scan.codec
			}
		}
		return scan, err
	}

	// deliver drives one resumable target session of the relayed chunks,
	// sequenced 0..n-1, resuming each redelivery from the chunk the target
	// acked last. ShipBytes counts the actual wire bytes across all
	// attempts — retransmission is a real communication cost.
	deliver := func(sessionID string, scan *sourceRespScan) (*xmltree.Node, error) {
		open := `<ExecuteTarget session="` + sessionID + `"`
		if opts.Pipelined {
			open += ` pipelined="1"`
		}
		if opts.Delta {
			// Every sessioned delivery of a delta-enabled exchange names its
			// stream and epoch, so the target retains the applied snapshot
			// as the base the next delta patches.
			open += ` stream="` + attrEscape(stream) + `" epoch="` + epoch + `"`
		}
		if scan.delta {
			open += ` delta="1"`
		}
		open += `>`
		var respT *xmltree.Node
		delSpan := trace.Child("deliver")
		defer delSpan.End()
		delSpan.Set("session", sessionID)
		delSpan.Set("chunks", strconv.Itoa(len(scan.ends)))
		if scan.delta {
			delSpan.Set("delta", "1")
		}
		next := int64(0)
		err := ex.Do("ExecuteTarget", tgt.URL, func(try int) error {
			at := delSpan.Child("attempt")
			at.Set("try", strconv.Itoa(try))
			defer at.End()
			if try > 0 {
				probe := at.Child("probe")
				next = resumePoint(ct.Call("SessionStatus", sessionStatusReq(sessionID)))
				probe.Set("next", strconv.FormatInt(next, 10))
				probe.End()
				if next > 0 {
					report.Resumes++
					opts.Metrics.Counter("exchange.resumes").Inc()
				}
			}
			tb := &xmltree.TreeBuilder{}
			if err := ct.CallStream("ExecuteTarget", func(w io.Writer) error {
				if _, err := io.WriteString(w, open); err != nil {
					return err
				}
				if err := xmltree.Write(w, progXML, xmltree.WriteOptions{EmitAllIDs: true}); err != nil {
					return err
				}
				m := netsim.NewMeter(w)
				// Accumulated on every exit path: an attempt torn mid-chunk
				// still spent its bytes on the wire, and WireBytes counts the
				// retransmission cost across all attempts.
				defer func() {
					report.WireBytes += m.Bytes()
					report.ShipBytes = report.WireBytes
				}()
				if err := scan.relay(m, next); err != nil {
					return err
				}
				_, err := io.WriteString(w, `</ExecuteTarget>`)
				return err
			}, tb); err != nil {
				at.Set("err", err.Error())
				if soap.IsColdDelta(err) {
					// The target has no base to patch; no retry of this
					// session can warm it. Surface to the fallback below.
					return reliable.Permanent(err)
				}
				return err
			}
			if tb.Root() == nil || tb.Root().Name != "ExecuteTargetResponse" {
				at.Set("err", "no response")
				return reliable.Permanent(fmt.Errorf("registry: target returned no response"))
			}
			respT = tb.Root()
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The response is in hand, so the target's session state (ledger,
		// stored replay response) has served its purpose; release it now
		// rather than holding it for the store's full idle window. Best
		// effort — the target's sweeper collects it if this call is lost.
		commit := trace.Child("commit")
		ct.Call("EndSession", endSessionReq(sessionID))
		commit.End()
		return respT, nil
	}

	// A delta names the base the target last acked, if the target still
	// holds it; cold on either side (first exchange, restart, epoch
	// change), the source ships in full.
	base := ""
	if opts.Delta {
		if tok, ok := a.recon.Token(stream, epoch); ok && targetDeltaWarm(ct, stream, epoch) {
			base = tok
		}
	}
	session := ex.SessionID()
	var scan *sourceRespScan
	defer func() {
		// Every delivery attempt has returned by now, so nothing can
		// relay from the scan's buffer any more.
		if scan != nil {
			scan.release()
		}
	}()
	scan, err = fetch(session, base)
	if err != nil {
		report.Retries = ex.Retries()
		return report, fmt.Errorf("registry: source execution: %w", err)
	}
	keyed := scan.trailer.token != ""
	switch {
	case !opts.Delta:
	case !keyed:
		// Records without IDs cannot be reconciled: the source holds no
		// snapshot to diff the next exchange against.
		opts.Metrics.Counter("exchange.delta.unkeyed").Inc()
		log.Log(obs.LevelInfo, "delta disabled: shipment carries records without IDs", "service", service)
	case !scan.delta:
		opts.Metrics.Counter("exchange.delta.cold").Inc()
	}
	respT, err := deliver(session, scan)
	if err != nil && scan.delta && soap.IsColdDelta(err) {
		// The target lost its base between the warm probe and the delivery
		// (sweep or restart mid-flight). Full re-ship on a fresh session —
		// the dead session's ledger state must not skip chunks of a
		// differently-numbered shipment.
		opts.Metrics.Counter("exchange.delta.fallbacks").Inc()
		log.Log(obs.LevelWarn, "delta fell back to full re-ship: target base cold", "service", service)
		scan.release()
		session = ex.SessionID()
		if scan, err = fetch(session, ""); err != nil {
			report.Retries = ex.Retries()
			return report, fmt.Errorf("registry: source execution: %w", err)
		}
		keyed = scan.trailer.token != ""
		respT, err = deliver(session, scan)
	}
	report.Retries = ex.Retries()
	if err != nil {
		if opts.Delta {
			// Whether the target applied the shipment is unknown, so no
			// base can be named safely: the next exchange ships in full.
			a.recon.Invalidate(stream)
		}
		return report, fmt.Errorf("registry: target execution: %w", err)
	}
	if opts.Delta {
		// The target acked, so its snapshot now equals the source's fresh
		// one: the session token names the next exchange's base.
		if keyed {
			a.recon.Commit(stream, epoch, session)
		} else {
			a.recon.Invalidate(stream)
		}
		if scan.delta {
			opts.Metrics.Counter("exchange.delta.exchanges").Inc()
			opts.Metrics.Counter("exchange.delta.records").Add(int64(report.DeltaRecords))
			opts.Metrics.Counter("exchange.delta.tombstones").Add(int64(report.TombstoneRecords))
		}
	}
	report.ShipTime = opts.Link.TransferTime(report.ShipBytes)
	if v, ok := respT.Attr("execMillis"); ok {
		report.TargetTime = parseMillis(v)
	}
	if v, ok := respT.Attr("writeMillis"); ok {
		report.WriteTime = parseMillis(v)
	}
	if v, ok := respT.Attr("indexMillis"); ok {
		report.IndexTime = parseMillis(v)
	}
	if v, ok := respT.Attr("deduped"); ok {
		report.DedupedRecords, _ = strconv.ParseInt(v, 10, 64)
	}
	return report, nil
}

// deltaEpoch fingerprints the fragmentation agreement a reconciliation
// index is valid under: both parties' fragment signatures (and URLs). Any
// re-registration that changes a fragment set or endpoint changes the
// epoch, and both sides fall back to a full re-ship. The filter expression
// is deliberately NOT part of the epoch: a changed filter surfaces as
// adds/deletes in the content diff, which is exactly what a delta ships.
func deltaEpoch(src, tgt *Party) string {
	var b strings.Builder
	writeFragSig(&b, src)
	b.WriteByte('\x1f')
	writeFragSig(&b, tgt)
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return strconv.FormatUint(h.Sum64(), 16)
}

// targetDeltaWarm asks the target whether it holds a base snapshot for the
// stream at this epoch. Any failure reads as cold — the fallback is a full
// re-ship, which is always correct.
func targetDeltaWarm(ct *soap.Client, stream, epoch string) bool {
	req := &xmltree.Node{Name: "DeltaStatus"}
	req.SetAttr("stream", stream)
	req.SetAttr("epoch", epoch)
	resp, err := ct.Call("DeltaStatus", req)
	if err != nil || resp == nil {
		return false
	}
	v, _ := resp.Attr("warm")
	return v == "1"
}

// attrEscape escapes a string for embedding in a double-quoted XML
// attribute of a hand-built open tag.
var attrEscape = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace

// sessionStatusReq builds a SessionStatus probe for a session.
func sessionStatusReq(id string) *xmltree.Node {
	req := &xmltree.Node{Name: "SessionStatus"}
	req.SetAttr("session", id)
	return req
}

// endSessionReq builds the EndSession release for a session.
func endSessionReq(id string) *xmltree.Node {
	req := &xmltree.Node{Name: "EndSession"}
	req.SetAttr("session", id)
	return req
}

// resumePoint interprets a SessionStatus reply as the chunk to resume
// emission from. The reported checkpoint is adopted unconditionally —
// even when it is lower than what a previous attempt acked: a target
// that lost the session in between (idle sweep, endpoint restart)
// answers known="0" with a zero checkpoint, and resending chunks it
// already committed is safe (AdmitChunk and the record ledger dedup),
// whereas skipping chunks a reset ledger never saw would silently drop
// records while the exchange reports success. A failed or unparsable
// probe resumes from zero for the same reason.
func resumePoint(st *xmltree.Node, err error) int64 {
	if err != nil || st == nil {
		return 0
	}
	if v, _ := st.Attr("known"); v == "0" {
		return 0
	}
	v, _ := st.Attr("next")
	n, perr := strconv.ParseInt(v, 10, 64)
	if perr != nil || n < 0 {
		return 0
	}
	return n
}
