package reliable

// Delta-exchange reconciliation. Change detection runs at the source
// (§4.1 charges computation to S and T, and communication to the
// cross-edges), so both hops carry only what changed:
//
//   - the source keeps, per exchange stream, the record-level hashes of
//     the snapshots it shipped (SourceRecon): for every cross-edge
//     instance, a map from record ID (the same IDs the target Ledger
//     dedups on) to a content hash. A delta-enabled request names the
//     snapshot the target holds (its base token); the source hashes each
//     fresh record once, diffs against that base (Differ) and ships only
//     added or changed records, plus tombstones for IDs that disappeared;
//   - the agency keeps only which snapshot token the target last acked
//     (ReconIndex), and relays the source's delta verbatim.
//
// Both are guarded by a fragmentation epoch: when the plan's fragment
// signatures change, the old per-edge keys are meaningless and the
// exchange falls back to a full re-ship.

import (
	"sort"
	"strconv"
	"sync"

	"xdx/internal/core"
	"xdx/internal/xmltree"
)

// EdgeHashes maps record ID to content hash for one cross-edge instance.
type EdgeHashes map[string]uint64

// ReconIndex is the agency-side reconciliation state: per stream (one per
// service/plan exchange pair), the token of the snapshot the target last
// acked and the epoch it was shipped under. The record hashes behind a
// token live at the source (SourceRecon).
type ReconIndex struct {
	mu      sync.Mutex
	streams map[string]reconToken
}

type reconToken struct{ epoch, token string }

// NewReconIndex returns an empty (everywhere-cold) index.
func NewReconIndex() *ReconIndex {
	return &ReconIndex{streams: make(map[string]reconToken)}
}

// Token returns the snapshot token the target last acked for a stream, if
// the index is warm at this epoch. A cold stream or an epoch mismatch
// returns ok=false — the exchange must ship in full.
func (r *ReconIndex) Token(stream, epoch string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.streams[stream]
	if !ok || s.epoch != epoch {
		return "", false
	}
	return s.token, true
}

// Commit records the token of a snapshot the target acked, at the given
// epoch, as the stream's next delta base.
func (r *ReconIndex) Commit(stream, epoch, token string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.streams[stream] = reconToken{epoch: epoch, token: token}
}

// Invalidate drops a stream's token, forcing the next exchange to
// full-reship.
func (r *ReconIndex) Invalidate(stream string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.streams, stream)
}

// SourceRecon is the source-side reconciliation state: per stream, the
// record hashes of at most two snapshots ("generations"), each under the
// token the agency named it by — the base the latest request diffed
// against and the snapshot that request shipped. Any other base reads as
// cold, and the source ships in full, which is always correct.
type SourceRecon struct {
	mu      sync.Mutex
	streams map[string]*sourceStream
}

type sourceStream struct {
	epoch string
	gens  map[string]map[string]EdgeHashes
}

// NewSourceRecon returns an empty (everywhere-cold) source state.
func NewSourceRecon() *SourceRecon {
	return &SourceRecon{streams: make(map[string]*sourceStream)}
}

// Base returns the hashes of the snapshot token names, if this source
// holds that generation for the stream at this epoch. The returned maps
// are shared; callers must not mutate them.
func (r *SourceRecon) Base(stream, epoch, token string) (map[string]EdgeHashes, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.streams[stream]
	if s == nil || s.epoch != epoch || token == "" {
		return nil, false
	}
	edges, ok := s.gens[token]
	return edges, ok
}

// Record stores the hashes of a freshly shipped snapshot under its token
// and keeps, beside it, only the base generation the request named (if
// held at this epoch); every other generation is dropped. Nil edges — a
// shipment that cannot be reconciled — forget the stream.
func (r *SourceRecon) Record(stream, epoch, base, token string, edges map[string]EdgeHashes) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if edges == nil {
		delete(r.streams, stream)
		return
	}
	next := &sourceStream{epoch: epoch, gens: map[string]map[string]EdgeHashes{token: edges}}
	if s := r.streams[stream]; s != nil && s.epoch == epoch && base != token {
		if prev, ok := s.gens[base]; ok {
			next.gens[base] = prev
		}
	}
	r.streams[stream] = next
}

// HashRecord computes an FNV-1a content hash over a record subtree: names,
// IDs, attributes, text, and child order all contribute, so any visible
// change to the record changes its hash. The hash is folded in place over
// the node fields (no per-node buffer or hash.Hash), since the source runs
// it over every record of every delta-enabled shipment.
func HashRecord(rec *xmltree.Node) uint64 {
	return hashNode(fnvOffset, rec)
}

// FNV-1a 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvAdd folds the bytes of s into h.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// fnvByte folds one byte into h.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashNode(h uint64, n *xmltree.Node) uint64 {
	for _, f := range [...]string{n.Name, n.ID, n.Parent, n.Text} {
		h = fnvByte(fnvAdd(h, f), 0)
	}
	for _, a := range n.Attrs {
		h = fnvByte(fnvAdd(fnvByte(fnvAdd(h, a.Name), '='), a.Value), 0)
	}
	var num [20]byte
	for _, c := range strconv.AppendInt(num[:0], int64(len(n.Kids)), 10) {
		h = fnvByte(h, c)
	}
	h = fnvByte(h, 1)
	for _, k := range n.Kids {
		h = hashNode(h, k)
	}
	return h
}

// HashShipment hashes every record of a materialized shipment. The bool
// reports whether every record carries an ID: records without IDs cannot
// be reconciled (there is nothing to diff or tombstone by), so such
// shipments are not delta-able.
func HashShipment(out map[string]*core.Instance) (map[string]EdgeHashes, bool) {
	d := NewDiffer(nil)
	for key, in := range out {
		d.Filter(key, in.Records)
	}
	return d.Fresh()
}

// Differ reconciles a fresh shipment against a base generation as it is
// produced, batch by batch, hashing each record exactly once. It is safe
// for concurrent use, so pipelined slice stages can filter their batches
// as they emit them.
type Differ struct {
	base map[string]EdgeHashes

	mu      sync.Mutex
	fresh   map[string]EdgeHashes
	unkeyed bool
	records int
}

// NewDiffer starts a reconciliation against base. A nil base diffs
// nothing: every record ships, and the Differ only hashes the fresh
// generation.
func NewDiffer(base map[string]EdgeHashes) *Differ {
	return &Differ{base: base, fresh: make(map[string]EdgeHashes)}
}

// Filter hashes recs into the fresh generation under the edge key and
// returns the records a delta must ship: added or changed ones, and every
// record without an ID (there is nothing to compare it by). first reports
// whether this is the edge's first batch — the one that must reach the
// wire even when nothing in it changed, so the target patches the edge
// instead of dropping it.
func (d *Differ) Filter(key string, recs []*xmltree.Node) (ship []*xmltree.Node, first bool) {
	prev := d.base[key]
	if prev == nil {
		ship = recs
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	eh := d.fresh[key]
	if eh == nil {
		eh = make(EdgeHashes, len(recs))
		d.fresh[key] = eh
		first = true
	}
	for _, rec := range recs {
		if rec.ID == "" {
			d.unkeyed = true
			if prev != nil {
				ship = append(ship, rec)
			}
			continue
		}
		h := HashRecord(rec)
		eh[rec.ID] = h
		if prev != nil {
			if old, ok := prev[rec.ID]; !ok || old != h {
				ship = append(ship, rec)
			}
		}
	}
	d.records += len(ship)
	return ship, first
}

// Records counts the records Filter passed for shipping so far.
func (d *Differ) Records() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.records
}

// Fresh returns the fresh generation's hashes and whether every record
// carried an ID — only then can the generation serve as a later base.
// Call it once every batch has been filtered.
func (d *Differ) Fresh() (map[string]EdgeHashes, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fresh, !d.unkeyed
}

// Tombstones returns, per edge, the sorted base record IDs the fresh
// shipment no longer carries — all of them for an edge that vanished from
// the shipment — and their total. Call it once every batch has been
// filtered.
func (d *Differ) Tombstones() (map[string][]string, int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tombs := make(map[string][]string)
	n := 0
	for key, prev := range d.base {
		fresh := d.fresh[key]
		var dead []string
		for id := range prev {
			if _, live := fresh[id]; !live {
				dead = append(dead, id)
			}
		}
		if len(dead) > 0 {
			sort.Strings(dead)
			tombs[key] = dead
			n += len(dead)
		}
	}
	return tombs, n
}

// Delta is the reconciled difference between a fresh shipment and a base
// generation.
type Delta struct {
	// Ship carries, per edge key, only the added or changed records, in
	// the fresh shipment's record order.
	Ship map[string]*core.Instance
	// Tombs carries, per edge key, the sorted record IDs present in the
	// base but absent from the fresh shipment.
	Tombs map[string][]string
	// Records and Tombstones count the shipped and deleted records.
	Records, Tombstones int
}

// DiffShipment reconciles a materialized fresh shipment against a base.
// Every edge of the fresh shipment appears in Ship (possibly with zero
// records — the edge still has to announce itself so the target patches
// it); edges that vanished entirely from the shipment contribute all
// their base IDs as tombstones.
func DiffShipment(out map[string]*core.Instance, base map[string]EdgeHashes) *Delta {
	df := NewDiffer(base)
	d := &Delta{Ship: make(map[string]*core.Instance, len(out))}
	for key, in := range out {
		ship, _ := df.Filter(key, in.Records)
		d.Ship[key] = &core.Instance{Frag: in.Frag, Records: ship}
	}
	d.Records = df.Records()
	d.Tombs, d.Tombstones = df.Tombstones()
	return d
}
