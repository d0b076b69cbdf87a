package nocdn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hpop/internal/hpop"
)

// refAuditor is the full-rescan auditor the O(batch) one replaced, kept as a
// test oracle: after every batch it rescores EVERY audited peer against the
// updated population, stores the scores, and flags (once) each eligible peer
// over the threshold.
type refAuditor struct {
	peers map[string]*refPeerAudit
	pop   welford
}

type refPeerAudit struct {
	records, rejects, replays, bytes int64
	stats                            welford
	score                            float64
	flagged                          bool
	offending                        []string
}

func newRefAuditor() *refAuditor { return &refAuditor{peers: make(map[string]*refPeerAudit)} }

// observeSettled merges one batch's deltas, rescans the whole fleet, and
// returns the newly flagged peers.
func (r *refAuditor) observeSettled(deltas []walAuditDelta) []string {
	for _, d := range deltas {
		pa := r.peers[d.PeerID]
		if pa == nil {
			pa = &refPeerAudit{}
			r.peers[d.PeerID] = pa
		}
		pa.records += d.Records
		pa.rejects += d.Rejects
		pa.replays += d.Replays
		pa.bytes += d.Bytes
		pa.stats.merge(d.N, d.Mean, d.M2)
		r.pop.merge(d.N, d.Mean, d.M2)
		for _, tid := range d.Offending {
			if len(pa.offending) < auditMaxOffending {
				pa.offending = append(pa.offending, tid)
			}
		}
	}
	var newly []string
	for id, p := range r.peers {
		p.score = r.score(p)
		if !p.flagged && p.records >= DefaultAuditMinRecords && p.score > DefaultAuditThreshold {
			p.flagged = true
			newly = append(newly, id)
		}
	}
	return newly
}

func (r *refAuditor) score(pa *refPeerAudit) float64 {
	denom := r.pop.stddev()
	if floor := r.pop.mean / 4; denom < floor {
		denom = floor
	}
	if denom < 1 {
		denom = 1
	}
	z := math.Abs(pa.stats.mean-r.pop.mean) / denom
	rejectRate := 0.0
	if pa.records > 0 {
		rejectRate = float64(pa.rejects) / float64(pa.records)
	}
	return z + 2*rejectRate
}

// snapshot renders the reference in the /debug/audit shape, from the scores
// stored by the last rescan.
func (r *refAuditor) snapshot() AuditSnapshot {
	snap := AuditSnapshot{
		PopulationMeanBytes:   r.pop.mean,
		PopulationStddevBytes: r.pop.stddev(),
		Peers:                 make([]PeerAudit, 0, len(r.peers)),
	}
	for id, pa := range r.peers {
		snap.Peers = append(snap.Peers, PeerAudit{
			PeerID:      id,
			Records:     pa.records,
			Rejects:     pa.rejects,
			Replays:     pa.replays,
			ClaimedByte: pa.bytes,
			MeanBytes:   pa.stats.mean,
			StddevBytes: pa.stats.stddev(),
			Deviation:   pa.score,
			Flagged:     pa.flagged,
			Offending:   append([]string(nil), pa.offending...),
		})
	}
	sort.Slice(snap.Peers, func(i, j int) bool {
		if snap.Peers[i].Deviation != snap.Peers[j].Deviation {
			return snap.Peers[i].Deviation > snap.Peers[j].Deviation
		}
		return snap.Peers[i].PeerID < snap.Peers[j].PeerID
	})
	return snap
}

// refBuildAuditDeltas is the reference reduction of a batch to its journaled
// per-peer audit deltas.
func refBuildAuditDeltas(outcomes []settleOutcome) []walAuditDelta {
	byPeer := make(map[string]*walAuditDelta)
	stats := make(map[string]*welford)
	for _, oc := range outcomes {
		d := byPeer[oc.rec.PeerID]
		if d == nil {
			d = &walAuditDelta{PeerID: oc.rec.PeerID}
			byPeer[oc.rec.PeerID] = d
			stats[oc.rec.PeerID] = &welford{}
		}
		d.Records++
		d.Bytes += oc.rec.Bytes
		stats[oc.rec.PeerID].observe(float64(oc.rec.Bytes))
		if oc.err != nil {
			d.Rejects++
			if oc.replayed {
				d.Replays++
			}
			if len(d.Offending) < auditMaxOffending {
				if tc, err := hpop.ParseTraceparent(oc.rec.Traceparent); err == nil {
					d.Offending = append(d.Offending, tc.TraceID.String())
				}
			}
		}
	}
	out := make([]walAuditDelta, 0, len(byPeer))
	for id, d := range byPeer {
		w := stats[id]
		d.N, d.Mean, d.M2 = w.n, w.mean, w.m2
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PeerID < out[j].PeerID })
	return out
}

// auditWorkload is one seed's settlement stream: up to 64 peers — honest,
// byte-inflating, and rejecting/replaying — whose records arrive shuffled
// and are cut into batches of 1–16.
func auditWorkload(rng *rand.Rand) [][]settleOutcome {
	nPeers := 2 + rng.Intn(63)
	var stream []settleOutcome
	for p := 0; p < nPeers; p++ {
		id := fmt.Sprintf("peer-%02d", p)
		base := 800 + rng.Float64()*400
		inflate, rejectP, replayP := 1.0, 0.0, 0.0
		switch k := rng.Intn(10); {
		case k < 2: // inflating: large claims, mostly rejected
			inflate, rejectP = 2+rng.Float64()*4, 0.5+rng.Float64()/2
		case k < 4: // rejecting / replaying at honest sizes
			rejectP, replayP = 0.3+rng.Float64()*0.7, rng.Float64()
		}
		for r, n := 0, 1+rng.Intn(12); r < n; r++ {
			oc := settleOutcome{rec: UsageRecord{
				PeerID: id,
				Bytes:  int64(base * inflate * (0.8 + 0.4*rng.Float64())),
			}}
			if rng.Float64() < rejectP {
				oc.err = errors.New("rejected")
				oc.replayed = rng.Float64() < replayP
				oc.rec.Traceparent = fmt.Sprintf("00-%032x-%016x-01", rng.Uint64()|1, rng.Uint64()|1)
			}
			stream = append(stream, oc)
		}
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	var batches [][]settleOutcome
	for len(stream) > 0 {
		n := min(1+rng.Intn(16), len(stream))
		batches = append(batches, stream[:n])
		stream = stream[n:]
	}
	return batches
}

// unflagged masks the one field the two auditors may legitimately disagree
// on at a given instant: the O(batch) auditor can flag a drifting peer later
// (never earlier) than the full rescan.
func unflagged(s AuditSnapshot) AuditSnapshot {
	for i := range s.Peers {
		s.Peers[i].Flagged = false
	}
	return s
}

// sameRows compares every audit row with the reference's, deviation
// included, and reports the first peer that differs.
func sameRows(a *Auditor, ref *refAuditor) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.peers) != len(ref.peers) || a.pop != ref.pop {
		return "population", false
	}
	for id, r := range ref.peers {
		p := a.peers[id]
		if p == nil || p.records != r.records || p.rejects != r.rejects || p.replays != r.replays ||
			p.bytes != r.bytes || p.stats != r.stats || !slices.Equal(p.offending, r.offending) ||
			a.scoreLocked(p) != r.score {
			return id, false
		}
	}
	return "", true
}

// TestAuditorDifferentialFullRescan replays 1,000 seeded settlement streams
// through the O(batch) auditor and the full-rescan reference and checks:
//
//	(a) no new false positives: every flag the auditor raises, the
//	    reference raised at the same batch or earlier;
//	(b) drift is caught: after an honest drain of |audited peers| records,
//	    every eligible peer the reference scored above threshold throughout
//	    the drain is flagged;
//	(c) journaled deltas and audit rows (Deviation included) match the
//	    reference exactly after every batch, and so do the /debug/audit
//	    snapshots after the stream and after the drain.
func TestAuditorDifferentialFullRescan(t *testing.T) {
	const seeds = 1000
	sweepFlags := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, ref := NewAuditor(), newRefAuditor()
		flaggedAt, refFlaggedAt := map[string]int{}, map[string]int{}
		batchNo := 0
		named := map[string]bool{}
		a.OnFlag = func(id string) {
			flaggedAt[id] = batchNo
			if !named[id] {
				sweepFlags++
			}
		}
		settle := func(outcomes []settleOutcome) {
			deltas, refDeltas := buildAuditDeltas(outcomes), refBuildAuditDeltas(outcomes)
			if !reflect.DeepEqual(deltas, refDeltas) {
				t.Fatalf("seed %d batch %d: deltas differ\n got  %+v\n want %+v", seed, batchNo, deltas, refDeltas)
			}
			clear(named)
			for _, d := range deltas {
				named[d.PeerID] = true
			}
			a.observeSettled(outcomes, deltas)
			for _, id := range ref.observeSettled(refDeltas) {
				refFlaggedAt[id] = batchNo
			}
			for id, at := range flaggedAt {
				if refAt, ok := refFlaggedAt[id]; !ok || refAt > at {
					t.Fatalf("seed %d: %s flagged at batch %d, reference never flagged it by then", seed, id, at)
				}
			}
			if id, ok := sameRows(a, ref); !ok {
				t.Fatalf("seed %d batch %d: %s's audit row differs from the reference", seed, batchNo, id)
			}
			batchNo++
		}
		sameSnapshot := func(phase string) {
			if got, want := unflagged(a.Snapshot()), unflagged(ref.snapshot()); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: snapshot differs from reference\n got  %+v\n want %+v", seed, phase, got, want)
			}
		}
		for _, b := range auditWorkload(rng) {
			settle(b)
		}
		sameSnapshot("after the stream")

		// Drain: a fresh honest peer submits population-mean records until
		// the sweep has covered every audited peer (itself included).
		overThroughout := map[string]bool{}
		for id, p := range ref.peers {
			overThroughout[id] = p.records >= DefaultAuditMinRecords
		}
		drainBytes := int64(math.Round(ref.pop.mean))
		for left := len(ref.peers) + 1; left > 0; {
			n := min(1+rng.Intn(16), left)
			outcomes := make([]settleOutcome, n)
			for i := range outcomes {
				outcomes[i] = settleOutcome{rec: UsageRecord{PeerID: "drain", Bytes: drainBytes}}
			}
			settle(outcomes)
			left -= n
			for id, p := range ref.peers {
				if p.score <= DefaultAuditThreshold {
					overThroughout[id] = false
				}
			}
		}
		sameSnapshot("after the drain")
		for id, over := range overThroughout {
			if _, ok := flaggedAt[id]; over && !ok {
				t.Fatalf("seed %d: %s stayed over threshold through the drain but was never flagged", seed, id)
			}
		}
	}
	// The sweep, not just the batch's own peers, must have done some of the
	// flagging, or (b) was checked vacuously.
	if sweepFlags == 0 {
		t.Fatal("no peer was flagged by the sweep across all seeds")
	}
	t.Logf("%d seeds, %d flags raised by the sweep", seeds, sweepFlags)
}
