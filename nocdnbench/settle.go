package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"hpop/internal/nocdn"
)

// settleInputs is what settle-fleet feeds the program: the wrapper page
// the reader asks for, the key object, the audit-seeding claims, the batch
// sequence and the wrapper reader's client sequence.
type settleInputs struct {
	sp      spec
	seed    uint64
	catalog []object
	data    [][]byte
	page    page
	key     []byte
	audit   []int64
	batches []batchInput
	readers []string
}

func newSettleInputs(sp spec, seed uint64, seconds float64) *settleInputs {
	in := &settleInputs{sp: sp, seed: seed, catalog: genCatalog(sp, seed)}
	for i, obj := range in.catalog {
		in.data = append(in.data, objectBytes(seed, i, 0, obj.Size))
	}
	in.page = genPages(sp, seed)[0]
	in.key = objectBytes(seed, len(in.catalog), 0, sp.keyObjectBytes)
	in.audit = genAuditClaims(sp, seed)
	n := settleBatches(sp, seconds)
	in.batches = genBatches(sp, seed, n)
	in.readers = genWrapperClients(sp, seed, n*sp.wrapperGetsPerBatch)
	return in
}

const (
	fleetPage = "fleet"
	keysPage  = "fleet-keys"
	keyPath   = "/k/blob"
)

// settleStack is one origin with a registered fleet whose peers each hold
// a key and an audit row.
type settleStack struct {
	in   *settleInputs
	rec  *recorder
	on   *originNode
	osrv *server
	http *http.Client
	ids  []string
	keys map[string]nocdn.PeerKey
	// credit is the bytes each peer has been credited so far, by the
	// benchmark's own account.
	credit map[string]int64
}

func fleetID(i int) string { return fmt.Sprintf("peer-%05d", i) }

// setupSettle registers the fleet, publishes, issues every peer a key
// through one legacy wrapper whose page names the key object once per
// peer, seeds every peer's audit row through one mixed-peer /usage batch,
// and fills the wrapper pool for the reader's client population.
func setupSettle(in *settleInputs, rec *recorder, dir string) (*settleStack, error) {
	st := &settleStack{in: in, rec: rec, http: benchClient(), credit: map[string]int64{}}
	on, _, _, _, err := newOriginNode(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	st.on = on
	o := on.o
	p := nocdn.Page{Name: fleetPage, Container: in.catalog[in.page.Container].Path}
	for i, obj := range in.catalog {
		o.AddObject(obj.Path, in.data[i])
	}
	for _, e := range in.page.Embedded {
		p.Embedded = append(p.Embedded, in.catalog[e].Path)
	}
	if err := o.AddPage(p); err != nil {
		return nil, err
	}
	o.AddObject(keyPath, in.key)
	refs := make([]string, in.sp.peers-1)
	for i := range refs {
		refs[i] = keyPath
	}
	if err := o.AddPage(nocdn.Page{Name: keysPage, Container: keyPath, Embedded: refs}); err != nil {
		return nil, err
	}
	if st.osrv, err = serve(rec, "origin", o.Handler()); err != nil {
		return nil, err
	}
	for i := 0; i < in.sp.peers; i++ {
		id := fleetID(i)
		st.ids = append(st.ids, id)
		o.RegisterPeer(id, "http://"+id+".invalid", float64(10+i*10))
	}
	w, err := o.GenerateWrapper(keysPage)
	if err != nil {
		return nil, err
	}
	if len(w.Keys) != in.sp.peers {
		return nil, fmt.Errorf("key wrapper named %d of %d peers", len(w.Keys), in.sp.peers)
	}
	st.keys = w.Keys

	records := make([]nocdn.UsageRecord, in.sp.peers)
	for i, id := range st.ids {
		r, err := st.record(id, keysPage, fmt.Sprintf("audit-%d", i), in.audit[i])
		if err != nil {
			return nil, err
		}
		records[i] = r
		st.credit[id] += in.audit[i]
	}
	body, err := nocdn.EncodeRecords(records)
	if err != nil {
		return nil, err
	}
	credited, code, err := st.post("/usage", body)
	if err != nil || code != http.StatusOK || credited != len(records) {
		return nil, fmt.Errorf("audit batch: status %d, credited %d of %d: %v", code, credited, len(records), err)
	}
	for c := 0; c < in.sp.clients; c++ {
		if _, err := o.AssignWrapper(fleetPage, clientName(uint64(c))); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// record builds one usage record signed with peer id's key.
func (st *settleStack) record(id, pageName, nonce string, claim int64) (nocdn.UsageRecord, error) {
	k := st.keys[id]
	secret, err := hex.DecodeString(k.Secret)
	if err != nil {
		return nocdn.UsageRecord{}, err
	}
	r := nocdn.UsageRecord{
		Provider: provider, PeerID: id, KeyID: k.KeyID, Page: pageName,
		Bytes: claim, Objects: 1, Nonce: nonce, IssuedAt: time.Now(),
	}
	r.Sign(secret)
	return r, nil
}

// post uploads one settlement payload and returns how many records the
// origin credited.
func (st *settleStack) post(path string, body []byte) (credited, code int, err error) {
	req, err := http.NewRequest(http.MethodPost, st.osrv.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	code, reply, err := fetch(st.http, req)
	if err != nil || code/100 != 2 {
		return 0, code, err
	}
	var ack struct{ Credited, Submitted int }
	if err := json.Unmarshal(reply, &ack); err != nil {
		return 0, code, fmt.Errorf("decode settlement reply: %w", err)
	}
	return ack.Credited, code, nil
}

// signed is one pre-signed batch ready to upload.
type signed struct {
	peer  string
	body  []byte
	n     int
	bytes int64
}

// presign signs and encodes the whole batch sequence against this stack's
// keys, before anything is timed.
func (st *settleStack) presign() ([]signed, error) {
	out := make([]signed, len(st.in.batches))
	for b, bi := range st.in.batches {
		id := fleetID(bi.Peer)
		recs := make([]nocdn.UsageRecord, len(bi.Records))
		var total int64
		for j, claim := range bi.Records {
			r, err := st.record(id, fleetPage, fmt.Sprintf("b%d-%d", b, j), claim)
			if err != nil {
				return nil, err
			}
			recs[j] = r
			total += claim
		}
		body, err := nocdn.EncodeBatch(nocdn.NewRecordBatch(id, recs))
		if err != nil {
			return nil, err
		}
		out[b] = signed{peer: id, body: body, n: len(recs), bytes: total}
	}
	return out, nil
}

// getWrapper reads one pooled wrapper for client.
func (st *settleStack) getWrapper(client string) error {
	req, err := http.NewRequest(http.MethodGet, st.osrv.url+"/wrapper?page="+fleetPage+"&client="+client, nil)
	if err != nil {
		return err
	}
	code, body, err := fetch(st.http, req)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !bytes.HasPrefix(body, []byte("{")) {
		return fmt.Errorf("wrapper status %d", code)
	}
	return nil
}

func (st *settleStack) close() {
	st.osrv.close()
	st.http.CloseIdleConnections()
	st.on.o.Shutdown()
}

// settleTally is what the settlement loop observed.
type settleTally struct {
	batchMs, tickMs     []float64
	batches, batchFail  int
	submitted, credited int
	reads, readFail     int
	failure, problem    string // the first of each
}

// submit uploads batch b and accounts for it: a non-2xx reply or an
// under-credited batch is a failure.
func (st *settleStack) submit(b signed, t *settleTally, traced bool) {
	id := st.rec.begin(traced)
	t0 := time.Now()
	credited, code, err := st.post("/usage/batch", b.body)
	t1 := time.Now()
	st.rec.end(id, "batch", t0, t1)
	t.batchMs = append(t.batchMs, ms(t1.Sub(t0)))
	t.batches++
	t.submitted += b.n
	t.credited += credited
	if err != nil || code/100 != 2 || credited != b.n {
		t.batchFail++
		if t.failure == "" {
			t.failure = fmt.Sprintf("batch from %s: status %d, credited %d of %d: %v", b.peer, code, credited, b.n, err)
		}
		if credited > 0 && credited != b.n && t.problem == "" {
			t.problem = fmt.Sprintf("batch from %s credited %d of %d records", b.peer, credited, b.n)
		}
	}
	if credited == b.n {
		st.credit[b.peer] += b.bytes
	}
}

// tick runs one epoch tick, timed.
func (st *settleStack) tick(t *settleTally, traced bool) {
	id := st.rec.begin(traced)
	t0 := time.Now()
	st.on.o.EpochTick()
	t1 := time.Now()
	st.rec.end(id, "epoch_tick", t0, t1)
	t.tickMs = append(t.tickMs, ms(t1.Sub(t0)))
}

// cutWAL copies the quiescent WAL (what an unclean stop would leave) and
// the live ledger of every fleet peer.
func (st *settleStack) cutWAL(dst string) (map[string]nocdn.Accounting, error) {
	if err := copyDir(st.on.walDir, dst); err != nil {
		return nil, err
	}
	return ledgerRows(st.on.o, st.ids), nil
}

// checkCredit compares every fleet peer's ledger row with the benchmark's
// account of what it was credited.
func (st *settleStack) checkCredit() string {
	for _, id := range st.ids {
		if got := st.on.o.AccountingFor(id).CreditedBytes; got != st.credit[id] {
			return fmt.Sprintf("peer %s credited %d bytes, expected %d", id, got, st.credit[id])
		}
	}
	if n := st.on.metrics.Counter("nocdn.origin.records_rejected"); n != 0 {
		return fmt.Sprintf("%v settlement rejects on an honest workload", n)
	}
	return ""
}

// runSettle is settle-fleet's untraced run: a closed loop of two
// goroutines in lockstep rounds — each round one pre-signed batch upload
// beside wrapperGetsPerBatch pooled wrapper reads — with an epoch tick
// every tickEvery batches and the WAL cut at batch recoverCut.
func runSettle(sp spec, seed uint64, seconds float64, work string, out io.Writer) (*result, error) {
	in := newSettleInputs(sp, seed, seconds)
	rec := newRecorder(false)
	st, setups, err := setUp(sp.setupReps, work, func(dir string) (*settleStack, error) {
		return setupSettle(in, rec, dir)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	pool, err := st.presign()
	if err != nil {
		return nil, err
	}
	cut := filepath.Join(work, "cut")
	var rows map[string]nocdn.Accounting
	var heap uint64

	rounds := make(chan int)
	readDone := make(chan error)
	var readMs []float64 // written by the reader, read after it exits
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for r := range rounds {
			var first error
			for k := 0; k < sp.wrapperGetsPerBatch; k++ {
				t0 := time.Now()
				err := st.getWrapper(in.readers[r*sp.wrapperGetsPerBatch+k])
				readMs = append(readMs, ms(time.Since(t0)))
				if err != nil && first == nil {
					first = err
				}
			}
			readDone <- first
		}
	}()

	var t settleTally
	bytes0 := st.on.o.WrapperBytes() + st.on.o.OriginBytes()
	m := startMeter(nil)
	for b := 0; b < len(pool); b++ {
		if b > 0 && b%sp.tickEvery == 0 {
			st.tick(&t, false)
		}
		if b == sp.recoverCut {
			// The heap is read here, after a fixed amount of work, because
			// what the origin retains (nonces, audit rows) grows with it.
			cutAt := func() (err error) {
				heap = liveHeap()
				rows, err = st.cutWAL(cut)
				return err
			}
			if err := m.pause(cutAt); err != nil {
				close(rounds)
				readers.Wait()
				return nil, err
			}
		}
		rounds <- b
		st.submit(pool[b], &t, false)
		t.reads += sp.wrapperGetsPerBatch
		if err := <-readDone; err != nil {
			t.readFail++
		}
	}
	close(rounds)
	readers.Wait()
	ph := m.finish()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.fail(t.problem)
	if t.credited != t.submitted {
		res.fail(fmt.Sprintf("credited %d of %d submitted records", t.credited, t.submitted))
	}
	res.fail(st.checkCredit())
	rc, err := recoverFrom(rec, cut, work, rows, false)
	if err != nil {
		return nil, err
	}
	res.fail(rc.problem)

	res.Attempted = int64(t.batches + t.reads)
	res.Failed = int64(t.batchFail + t.readFail)
	n := float64(t.batches)
	res.set("setup_s", median(setups))
	res.set("cpu_ms_per_op", ms(ph.cpu)/n)
	res.set("allocs_per_op", float64(ph.mallocs)/n)
	res.set("origin_kb_per_op", float64(st.on.o.WrapperBytes()+st.on.o.OriginBytes()-bytes0)/1024/n)
	res.set("heap_live_mb", float64(heap)/(1<<20))

	fmt.Fprintf(out, "closed loop: %d batches (%d records) and %d wrapper reads in %.2f s; %d epoch ticks (p50 %.3f ms); fail_ratio %.6f %s\n",
		t.batches, t.submitted, t.reads, ph.wall.Seconds(), len(t.tickMs), median(t.tickMs),
		ratio(float64(res.Failed), float64(res.Attempted)), t.failure)
	fmt.Fprintf(out, "batch round trip ms: %s; host steal %.1f%% of CPU\n", spread(t.batchMs), 100*ph.steal)
	fmt.Fprintf(out, "settlement: %.1f records/s credited\n", float64(t.credited)/ph.wall.Seconds())
	fmt.Fprintf(out, "wrapper read ms: %s\n", spread(readMs))
	fmt.Fprintf(out, "set-up runs (s): %v; recoveries (s): %v, %d records replayed from a %d-batch journal\n",
		roundAll(setups), roundAll(rc.secs), rc.stats.RecordsReplayed, sp.recoverCut)
	printUngated(out,
		figure{"settle_records_per_s", float64(t.credited) / ph.wall.Seconds(), "rec/s"},
		figure{"settle_batch_p50_ms", median(t.batchMs), "ms"},
		figure{"settle_batch_p99_ms", percentile(t.batchMs, 0.99), "ms"},
		figure{"wrapper_p99_ms", percentile(readMs, 0.99), "ms"},
		figure{"recover_s", median(rc.secs), "s"},
		figure{"recover_cpu_ms", mean(rc.cpuMs), "ms"},
		figure{"fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio"})
	return res, nil
}

func roundAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
