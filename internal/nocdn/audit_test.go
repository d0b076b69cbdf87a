package nocdn

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"hpop/internal/hpop"
)

func TestWelfordMatchesDirectComputation(t *testing.T) {
	samples := []float64{4, 7, 13, 16, 10, 10}
	var w welford
	for _, s := range samples {
		w.observe(s)
	}
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	variance := 0.0
	for _, s := range samples {
		variance += (s - mean) * (s - mean)
	}
	sd := math.Sqrt(variance / float64(len(samples)))
	if math.Abs(w.mean-mean) > 1e-9 {
		t.Errorf("mean = %v, want %v", w.mean, mean)
	}
	if math.Abs(w.stddev()-sd) > 1e-9 {
		t.Errorf("stddev = %v, want %v", w.stddev(), sd)
	}
	var one welford
	one.observe(5)
	if got := one.stddev(); got != 0 {
		t.Errorf("stddev of one sample = %v, want 0", got)
	}
}

// TestAuditorFlagsInflatingPeer feeds the auditor honest peers plus one whose
// records are all rejected with inflated byte claims: the cheater's deviation
// must cross the threshold while every honest peer stays comfortably below,
// and the flag transition must emit exactly one audit span carrying the
// offending trace IDs.
func TestAuditorFlagsInflatingPeer(t *testing.T) {
	a := NewAuditor()
	m := hpop.NewMetrics()
	tr := hpop.NewTracer(0)
	a.SetMetrics(m)
	a.SetTracer(tr)

	tp := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for i := 0; i < 5; i++ {
		a.Observe(UsageRecord{PeerID: "honest-a", Bytes: 1000}, nil, false)
		a.Observe(UsageRecord{PeerID: "honest-b", Bytes: 1100}, nil, false)
		a.Observe(UsageRecord{PeerID: "cheat", Bytes: 4000, Traceparent: tp},
			errors.New("bad signature"), false)
	}

	snap := a.Snapshot()
	if len(snap.Peers) != 3 {
		t.Fatalf("snapshot has %d peers, want 3", len(snap.Peers))
	}
	if snap.Peers[0].PeerID != "cheat" {
		t.Fatalf("highest deviation is %q, want cheat", snap.Peers[0].PeerID)
	}
	cheat := snap.Peers[0]
	if !cheat.Flagged {
		t.Errorf("cheat not flagged (score %v)", cheat.Deviation)
	}
	if cheat.Deviation <= DefaultAuditThreshold {
		t.Errorf("cheat deviation %v, want > %v", cheat.Deviation, DefaultAuditThreshold)
	}
	if len(cheat.Offending) == 0 || cheat.Offending[0] != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("offending traces = %v, want the rejected records' trace ID", cheat.Offending)
	}
	for _, p := range snap.Peers[1:] {
		if p.Flagged {
			t.Errorf("honest peer %s flagged (score %v)", p.PeerID, p.Deviation)
		}
		if p.Deviation >= cheat.Deviation {
			t.Errorf("honest peer %s deviation %v >= cheat's %v", p.PeerID, p.Deviation, cheat.Deviation)
		}
	}

	if got := m.Counter("nocdn.audit.records"); got != 15 {
		t.Errorf("audit.records = %v, want 15", got)
	}
	if got := m.Counter("nocdn.audit.rejects"); got != 5 {
		t.Errorf("audit.rejects = %v, want 5", got)
	}
	if got := m.Counter("nocdn.audit.flagged"); got != 1 {
		t.Errorf("audit.flagged = %v, want 1 (flag must fire once, not per record)", got)
	}
	if got := m.Gauge("nocdn.audit.peer.cheat.deviation"); got != cheat.Deviation {
		t.Errorf("deviation gauge = %v, want %v", got, cheat.Deviation)
	}

	var flagSpans []hpop.SpanRecord
	for _, rec := range tr.Recent(100) {
		if rec.Service == "nocdn.audit" && rec.Name == "peer_flagged" {
			flagSpans = append(flagSpans, rec)
		}
	}
	if len(flagSpans) != 1 {
		t.Fatalf("got %d peer_flagged spans, want 1", len(flagSpans))
	}
	sp := flagSpans[0]
	if sp.Labels["peer"] != "cheat" {
		t.Errorf("flag span peer = %q, want cheat", sp.Labels["peer"])
	}
	if sp.Labels["offending_trace_0"] != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("flag span offending_trace_0 = %q", sp.Labels["offending_trace_0"])
	}
}

func TestAuditorReplayClassification(t *testing.T) {
	a := NewAuditor()
	for i := 0; i < 4; i++ {
		a.Observe(UsageRecord{PeerID: "rep", Bytes: 500}, errors.New("nonce reused"), true)
	}
	snap := a.Snapshot()
	if snap.Peers[0].Replays != 4 || snap.Peers[0].Rejects != 4 {
		t.Errorf("replays/rejects = %d/%d, want 4/4", snap.Peers[0].Replays, snap.Peers[0].Rejects)
	}
}

func TestAuditorMinRecordsGate(t *testing.T) {
	a := NewAuditor()
	a.Observe(UsageRecord{PeerID: "p", Bytes: 100}, errors.New("bad"), false)
	a.Observe(UsageRecord{PeerID: "p", Bytes: 100}, errors.New("bad"), false)
	if snap := a.Snapshot(); snap.Peers[0].Flagged {
		t.Errorf("peer flagged at %d records, min is %d", snap.Peers[0].Records, DefaultAuditMinRecords)
	}
}

func TestAuditorOffendingBounded(t *testing.T) {
	a := NewAuditor()
	for i := 0; i < auditMaxOffending*3; i++ {
		tp := fmt.Sprintf("00-%032x-%016x-01", i+1, i+1)
		a.Observe(UsageRecord{PeerID: "p", Bytes: 100, Traceparent: tp}, errors.New("bad"), false)
	}
	if got := len(a.Snapshot().Peers[0].Offending); got != auditMaxOffending {
		t.Errorf("offending traces retained = %d, want cap %d", got, auditMaxOffending)
	}
}

func TestAuditHandlerJSON(t *testing.T) {
	a := NewAuditor()
	a.Observe(UsageRecord{PeerID: "p", Bytes: 100}, nil, false)
	rec := httptest.NewRecorder()
	a.Handler()(rec, httptest.NewRequest("GET", "/debug/audit", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var snap AuditSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("response not valid audit JSON: %v", err)
	}
	if len(snap.Peers) != 1 || snap.Peers[0].PeerID != "p" {
		t.Errorf("decoded snapshot = %+v", snap)
	}
}

func TestAuditorNilSafety(t *testing.T) {
	var a *Auditor
	a.Observe(UsageRecord{PeerID: "p", Bytes: 1}, nil, false) // must not panic
	a.SetMetrics(nil)
	a.SetTracer(nil)
	if snap := a.Snapshot(); snap.Peers == nil || len(snap.Peers) != 0 {
		t.Errorf("nil auditor snapshot = %+v, want empty peers slice", snap)
	}
}

// seededAuditor builds an auditor with metrics and n honest audited peers,
// each already judged once, so every per-peer deviation gauge exists.
func seededAuditor(n int) *Auditor {
	a := NewAuditor()
	a.SetMetrics(hpop.NewMetrics())
	const perBatch = 100
	for lo := 0; lo < n; lo += perBatch {
		var outcomes []settleOutcome
		for i := lo; i < lo+perBatch && i < n; i++ {
			rec := UsageRecord{PeerID: fmt.Sprintf("peer-%06d", i), Bytes: 1000}
			for r := 0; r < DefaultAuditMinRecords; r++ {
				outcomes = append(outcomes, settleOutcome{rec: rec})
			}
		}
		a.observeSettled(outcomes, buildAuditDeltas(outcomes))
	}
	return a
}

// honestBatch is one 16-record batch from a single peer, with its deltas.
func honestBatch(peerID string) ([]settleOutcome, []walAuditDelta) {
	outcomes := make([]settleOutcome, 16)
	for i := range outcomes {
		outcomes[i] = settleOutcome{rec: UsageRecord{PeerID: peerID, Bytes: 1000}}
	}
	return outcomes, buildAuditDeltas(outcomes)
}

// TestAuditObserveSettledAllocsIndependentOfFleet: judging one batch costs
// the same at 100 and at 10,000 audited peers — the batch's own peers plus
// a bounded sweep, never a rescan of the whole fleet.
func TestAuditObserveSettledAllocsIndependentOfFleet(t *testing.T) {
	allocs := func(n int) float64 {
		a := seededAuditor(n)
		outcomes, deltas := honestBatch("peer-000000")
		return testing.AllocsPerRun(50, func() { a.observeSettled(outcomes, deltas) })
	}
	small, large := allocs(100), allocs(10000)
	if small != large {
		t.Fatalf("allocs per 16-record batch = %v at 100 peers, %v at 10,000: audit work grows with the fleet", small, large)
	}
}

// BenchmarkAuditObserveSettled times one 16-record single-peer batch
// against a growing audited fleet.
func BenchmarkAuditObserveSettled(b *testing.B) {
	for _, n := range []int{100, 10000, 100000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			a := seededAuditor(n)
			outcomes, deltas := honestBatch("peer-000000")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.observeSettled(outcomes, deltas)
			}
		})
	}
}
