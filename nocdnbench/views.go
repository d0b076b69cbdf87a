package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/nocdn"
)

// viewInputs is everything the view workloads feed the program, derived
// from the seed once per run and shared by every set-up repetition.
type viewInputs struct {
	sp        spec
	seed      uint64
	catalog   []object
	pages     []page
	data      [][]byte // version-0 bytes per catalog object
	views     []viewInput
	publishes []publishInput
}

func newViewInputs(sp spec, seed uint64, seconds float64) *viewInputs {
	in := &viewInputs{sp: sp, seed: seed, catalog: genCatalog(sp, seed), pages: genPages(sp, seed)}
	in.data = make([][]byte, len(in.catalog))
	for i, obj := range in.catalog {
		in.data[i] = objectBytes(seed, i, 0, obj.Size)
	}
	in.views = genViews(sp, seed, int(math.Ceil(sp.viewRate*seconds)))
	if sp.publishRate > 0 {
		in.publishes = genPublishes(sp, seed, int(math.Ceil(sp.publishRate*seconds)))
	}
	return in
}

// viewStack is one running origin, its live peers and the loader
// population, plus the benchmark's model of what each peer has earned.
type viewStack struct {
	in    *viewInputs
	rec   *recorder
	dir   string
	on    *originNode
	osrv  *server
	peers []*peerNode
	ls    *loaders
	http  *http.Client

	// locks orders republishes against in-flight views of the same object
	// (a view holds read locks on its page's objects), so every view sees
	// one version of each object; data is the current version's bytes.
	locks []sync.RWMutex
	data  [][]byte

	mu     sync.Mutex
	credit map[string]int64 // bytes of views whose records all arrived
	slack  map[string]int64 // bytes of views with a record missing
}

// setupViews builds and warms one stack: origin with WAL, catalog and
// pages published, peers registered, every object cached at every peer,
// every pooled wrapper map built, and one warm-up view of each page
// followed by a flush.
func setupViews(in *viewInputs, rec *recorder, dir string) (*viewStack, error) {
	st := &viewStack{
		in: in, rec: rec, dir: dir, http: benchClient(),
		locks:  make([]sync.RWMutex, len(in.catalog)),
		data:   append([][]byte(nil), in.data...),
		credit: map[string]int64{}, slack: map[string]int64{},
	}
	on, _, _, _, err := newOriginNode(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	st.on = on
	for i, obj := range in.catalog {
		on.o.AddObject(obj.Path, st.data[i])
	}
	for _, pg := range in.pages {
		p := nocdn.Page{Name: pg.Name, Container: in.catalog[pg.Container].Path}
		for _, e := range pg.Embedded {
			p.Embedded = append(p.Embedded, in.catalog[e].Path)
		}
		if err := on.o.AddPage(p); err != nil {
			return nil, err
		}
	}
	if st.osrv, err = serve(rec, "origin", on.o.Handler()); err != nil {
		return nil, err
	}
	for i := 0; i < in.sp.peers; i++ {
		id := fmt.Sprintf("peer-%02d", i)
		pdir := filepath.Join(dir, id)
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return nil, err
		}
		pn, err := newPeerNode(rec, id, in.sp, pdir, st.osrv.url)
		if err != nil {
			return nil, err
		}
		st.peers = append(st.peers, pn)
		on.o.RegisterPeer(id, pn.srv.url, float64(10+i*10))
	}
	if err := st.warmPeers(); err != nil {
		return nil, err
	}
	// Build every page's every pooled map, trying clients in order until
	// the page's slots are all built, so the set-up journal (and the
	// restart that replays it) has the same length whatever the seed.
	for _, pg := range in.pages {
		built := on.o.WrapperGenerations()
		for c := 0; c < in.sp.clients && on.o.WrapperGenerations()-built < nocdn.DefaultPoolSlots; c++ {
			if _, err := on.o.AssignWrapper(pg.Name, clientName(uint64(c))); err != nil {
				return nil, fmt.Errorf("warm wrapper pool: %w", err)
			}
		}
	}
	clients := []string{""}
	for _, v := range in.views {
		clients = append(clients, v.Client)
	}
	st.ls = newLoaders(st.osrv.url)
	st.ls.prepare(clients)
	for i := range in.pages {
		if failure, problem := st.view(viewInput{Page: i}); failure != "" || problem != "" {
			return nil, fmt.Errorf("warm-up view of %s failed: %s%s", in.pages[i].Name, failure, problem)
		}
	}
	if _, failed := st.drain(); failed > 0 {
		return nil, errors.New("warm-up flush failed")
	}
	return st, nil
}

// warmPeers fetches every object through every peer once, so each peer's
// cache tiers hold the whole catalog before measuring. The peers are split
// among min(2, nproc) goroutines, as many as issue the measured load.
func (st *viewStack) warmPeers() error {
	var next atomic.Int64
	errs := make([]error, min(2, runtime.NumCPU()))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := int(next.Add(1) - 1); p < len(st.peers) && errs[w] == nil; p = int(next.Add(1) - 1) {
				errs[w] = st.warmPeer(st.peers[p])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (st *viewStack) warmPeer(pn *peerNode) error {
	for i, obj := range st.in.catalog {
		req, err := http.NewRequest(http.MethodGet, pn.srv.url+"/proxy/"+provider+obj.Path, nil)
		if err != nil {
			return err
		}
		req.Header.Set(nocdn.ExpectHashHeader, nocdn.HashBytes(st.data[i]))
		code, body, err := fetch(st.http, req)
		if err != nil {
			return fmt.Errorf("warm %s via %s: %w", obj.Path, pn.id, err)
		}
		if code != http.StatusOK || !bytes.Equal(body, st.data[i]) {
			return fmt.Errorf("warm %s via %s: status %d, %d bytes", obj.Path, pn.id, code, len(body))
		}
	}
	return nil
}

func (st *viewStack) close() {
	st.osrv.close()
	for _, pn := range st.peers {
		pn.close(st.in.sp)
	}
	st.http.CloseIdleConnections()
	// The loaders' default clients share the process-wide transport; drop
	// its idle connections to this stack's (now closed) servers.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	st.on.o.Shutdown()
}

// pageObjects returns a page's catalog indices, container first.
func (st *viewStack) pageObjects(p int) []int {
	pg := st.in.pages[p]
	return append([]int{pg.Container}, pg.Embedded...)
}

// view runs one page view through the default loader and checks it.
// failure describes a refused view (an error, or fewer records delivered
// than peers served); problem describes wrong output (a byte that differs
// from the published version, a degraded object).
func (st *viewStack) view(v viewInput) (failure, problem string) {
	objs := st.pageObjects(v.Page)
	sorted := append([]int(nil), objs...)
	sort.Ints(sorted)
	for _, i := range sorted {
		st.locks[i].RLock()
	}
	defer func() {
		for _, i := range sorted {
			st.locks[i].RUnlock()
		}
	}()
	res, err := st.ls.get(v.Client).LoadPage(st.in.pages[v.Page].Name)
	if err != nil {
		return err.Error(), ""
	}
	if len(res.Degraded) > 0 {
		return "degraded view", fmt.Sprintf("view of %s degraded %v", res.Page, res.Degraded)
	}
	if len(res.Body) != len(objs) {
		problem = fmt.Sprintf("view of %s rendered %d of %d objects", res.Page, len(res.Body), len(objs))
	}
	for _, i := range objs {
		if !bytes.Equal(res.Body[st.in.catalog[i].Path], st.data[i]) {
			problem = fmt.Sprintf("view of %s rendered wrong bytes for %s", res.Page, st.in.catalog[i].Path)
			break
		}
	}
	full := res.RecordsDelivered == len(res.PeerBytes)
	st.mu.Lock()
	for id, n := range res.PeerBytes {
		if full {
			st.credit[id] += n
		} else {
			st.slack[id] += n
		}
	}
	st.mu.Unlock()
	if !full {
		failure = fmt.Sprintf("view of %s delivered %d of %d records", res.Page, res.RecordsDelivered, len(res.PeerBytes))
	}
	return failure, problem
}

// publish republishes one object at its next version, waiting for views
// in flight on it to finish.
func (st *viewStack) publish(p publishInput) {
	obj := st.in.catalog[p.Object]
	data := objectBytes(st.in.seed, p.Object, p.Version, obj.Size)
	st.locks[p.Object].Lock()
	st.on.o.AddObject(obj.Path, data)
	st.data[p.Object] = data
	st.locks[p.Object].Unlock()
}

// flush uploads one peer's pending records, as an operator's /flush cron
// would; traced opens a root for it. An empty flush is no operation.
func (st *viewStack) flush(pn *peerNode, traced bool) (attempted, failed int) {
	id := st.rec.begin(traced)
	t0 := time.Now()
	n, err := pn.p.Flush(st.osrv.url)
	st.rec.end(id, "flush", t0, time.Now())
	if n == 0 && err == nil {
		return 0, 0
	}
	if err != nil {
		return 1, 1
	}
	return 1, 0
}

// flushAll flushes every peer in turn.
func (st *viewStack) flushAll(traced bool) (attempted, failed int) {
	for _, pn := range st.peers {
		a, f := st.flush(pn, traced)
		attempted, failed = attempted+a, failed+f
	}
	return attempted, failed
}

// drain flushes until no peer holds a pending record (bounded).
func (st *viewStack) drain() (attempted, failed int) {
	for try := 0; try < 50; try++ {
		a, f := st.flushAll(false)
		attempted, failed = attempted+a, failed+f
		pending := 0
		for _, pn := range st.peers {
			pending += pn.p.PendingRecords()
		}
		if pending == 0 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	return
}

// checkCredit compares the origin's ledger with the bytes the loader
// attributed: exact for views whose records all arrived, and within the
// bytes of views that lost a record.
func (st *viewStack) checkCredit() string {
	for _, pn := range st.peers {
		got := st.on.o.AccountingFor(pn.id).CreditedBytes
		want := st.credit[pn.id]
		if got < want || got > want+st.slack[pn.id] {
			return fmt.Sprintf("peer %s credited %d bytes, loader attributed %d (+%d unconfirmed)",
				pn.id, got, want, st.slack[pn.id])
		}
	}
	if n := st.on.metrics.Counter("nocdn.origin.records_rejected"); n != 0 {
		return fmt.Sprintf("%v settlement rejects on an honest workload", n)
	}
	return ""
}

// ledgerRows captures the settlement ledger of the named peers.
func ledgerRows(o *nocdn.Origin, ids []string) map[string]nocdn.Accounting {
	out := make(map[string]nocdn.Accounting, len(ids))
	for _, id := range ids {
		out[id] = o.AccountingFor(id)
	}
	return out
}

// timedRestarts is how many restarts a recovery measurement times.
const timedRestarts = 5

// recovery is the outcome of restarting the origin over a WAL cut.
type recovery struct {
	secs    []float64 // wall time of each AttachWAL
	cpuMs   []float64 // process CPU time of each AttachWAL
	stats   nocdn.RecoveryStats
	walTail int64 // journal bytes at the cut
	problem string
}

// recoverFrom restarts a fresh origin over copies of the WAL cut left by an
// unclean stop, timing AttachWAL, and checks each recovered ledger against
// the live one at the cut. Crediting, rejections and suspension must
// match; assigned bytes replay as journaled floors. The first restart
// warms the process up and is checked but not timed.
func recoverFrom(rec *recorder, cut, work string, rows map[string]nocdn.Accounting, traced bool) (recovery, error) {
	var out recovery
	out.walTail = dirBytes(cut, "wal-*.log")
	ids := make([]string, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for r := 0; r <= timedRestarts; r++ {
		dir := filepath.Join(work, fmt.Sprintf("recover-%d", r))
		if err := copyDir(cut, dir); err != nil {
			return out, err
		}
		runtime.GC() // no collection debt from the run lands on the timed restart
		id := rec.begin(traced)
		t0 := time.Now()
		on, stats, took, cpu, err := newOriginNode(dir)
		rec.end(id, "recover", t0, time.Now())
		if err != nil {
			return out, err
		}
		if r > 0 {
			out.secs = append(out.secs, took.Seconds())
			out.cpuMs = append(out.cpuMs, ms(cpu))
		}
		out.stats = stats
		for _, pid := range ids {
			got, want := on.o.AccountingFor(pid), rows[pid]
			if got.CreditedBytes != want.CreditedBytes || got.Rejected != want.Rejected || got.Suspended != want.Suspended {
				out.problem = fmt.Sprintf("recovered ledger for %s = %+v, live at cut %+v", pid, got, want)
				break
			}
		}
		on.o.Shutdown()
		if err := os.RemoveAll(dir); err != nil {
			return out, err
		}
	}
	return out, nil
}

// loopStats is what the open-loop generator observed.
type loopStats struct {
	latencies            []float64 // ms from when each view was due
	lateness             []float64 // ms each view started after it was due
	peakInflight         int64
	views, viewFailed    int
	flushes, flushFailed int
	publishes            int
	failure, problem     string // the first of each
}

// openLoop issues the view sequence at the spec's fixed rate from
// min(2, nproc) generator goroutines, times each view from when it was
// due, and runs the flush cron and (view-churn) the publisher beside it.
// The cron flushes every peer once per flushEvery, one peer at a time at
// even offsets, so its settlement work does not land in one burst.
func (st *viewStack) openLoop(seconds float64) loopStats {
	sp := st.in.sp
	views := st.in.views
	n := len(views)
	ls := loopStats{latencies: make([]float64, n), lateness: make([]float64, n)}
	start := time.Now()
	due := func(i int, rate float64) time.Time {
		return start.Add(time.Duration((float64(i) + 0.5) / rate * float64(time.Second)))
	}
	hardStop := start.Add(time.Duration((seconds + 30) * float64(time.Second)))
	stop := make(chan struct{})
	var bg sync.WaitGroup

	bg.Add(1)
	go func() {
		defer bg.Done()
		t := time.NewTicker(time.Duration(sp.flushEvery / float64(len(st.peers)) * float64(time.Second)))
		defer t.Stop()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-t.C:
				a, f := st.flush(st.peers[k%len(st.peers)], false)
				ls.flushes, ls.flushFailed = ls.flushes+a, ls.flushFailed+f
			}
		}
	}()
	if len(st.in.publishes) > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for j, p := range st.in.publishes {
				select {
				case <-stop:
					return
				case <-time.After(time.Until(due(j, sp.publishRate))):
				}
				st.publish(p)
				ls.publishes++
			}
		}()
	}

	var next, inflight, peak atomic.Int64
	var failed atomic.Int64
	var failureOnce, problemOnce sync.Once
	var wg sync.WaitGroup
	workers := min(2, runtime.NumCPU())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d := due(i, sp.viewRate)
				time.Sleep(time.Until(d))
				t0 := time.Now()
				if t0.After(hardStop) {
					failed.Add(1)
					ls.latencies[i] = ms(t0.Sub(d))
					continue
				}
				if f := inflight.Add(1); f > peak.Load() {
					peak.Store(f)
				}
				failure, problem := st.view(views[i])
				inflight.Add(-1)
				ls.latencies[i] = ms(time.Since(d))
				ls.lateness[i] = ms(t0.Sub(d))
				if failure != "" {
					failed.Add(1)
					failureOnce.Do(func() { ls.failure = failure })
				}
				if problem != "" {
					problemOnce.Do(func() { ls.problem = problem })
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	a, f := st.drain()
	ls.flushes, ls.flushFailed = ls.flushes+a, ls.flushFailed+f
	ls.views, ls.viewFailed = n, int(failed.Load())
	ls.peakInflight = peak.Load()
	return ls
}

// runViews is the untraced run of a view workload: set up setupReps
// times (the last stack is measured), cut the WAL, run the open loop, check
// every output, and recover the origin from the cut.
func runViews(sp spec, seed uint64, seconds float64, work string, out io.Writer) (*result, error) {
	in := newViewInputs(sp, seed, seconds)
	rec := newRecorder(false)
	st, setups, err := setUp(sp.setupReps, work, func(dir string) (*viewStack, error) {
		return setupViews(in, rec, dir)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	cut := filepath.Join(work, "cut")
	if err := copyDir(st.on.walDir, cut); err != nil {
		return nil, err
	}
	rows := ledgerRows(st.on.o, peerIDs(st.peers))

	bytes0 := st.on.o.WrapperBytes() + st.on.o.OriginBytes()
	records0 := settledRecords(st.on)
	m := startMeter(nil)
	ls := st.openLoop(seconds)
	ph := m.finish()
	heap := liveHeap()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.fail(ls.problem)
	res.fail(st.checkCredit())
	rc, err := recoverFrom(rec, cut, work, rows, false)
	if err != nil {
		return nil, err
	}
	res.fail(rc.problem)

	res.Attempted = int64(ls.views + ls.flushes + ls.publishes)
	res.Failed = int64(ls.viewFailed + ls.flushFailed)
	views := float64(ls.views)
	res.set("setup_s", median(setups))
	res.set("cpu_ms_per_op", ms(ph.cpu)/views)
	res.set("allocs_per_op", float64(ph.mallocs)/views)
	res.set("origin_kb_per_op", float64(st.on.o.WrapperBytes()+st.on.o.OriginBytes()-bytes0)/1024/views)
	res.set("heap_live_mb", float64(heap)/(1<<20))

	fmt.Fprintf(out, "generator: %d views at %.0f/s from %d goroutines; late p50 %.3f ms, p99 %.3f ms, max %.3f ms; peak %d views in flight\n",
		ls.views, sp.viewRate, min(2, runtime.NumCPU()), median(ls.lateness), percentile(ls.lateness, 0.99),
		percentile(ls.lateness, 1), ls.peakInflight)
	fmt.Fprintf(out, "view latency ms: %s; host steal %.1f%% of CPU\n", spread(ls.latencies), 100*ph.steal)
	fmt.Fprintf(out, "settlement: %.1f records/s credited\n", (settledRecords(st.on)-records0)/ph.wall.Seconds())
	fmt.Fprintf(out, "background: %d flushes (%d failed), %d republishes; fail_ratio %.6f %s\n",
		ls.flushes, ls.flushFailed, ls.publishes, ratio(float64(res.Failed), float64(res.Attempted)), ls.failure)
	fmt.Fprintf(out, "set-up runs (s): %v; recoveries (s): %v, %d records replayed\n",
		roundAll(setups), roundAll(rc.secs), rc.stats.RecordsReplayed)
	printUngated(out,
		figure{"view_p50_ms", median(ls.latencies), "ms"},
		figure{"view_p99_ms", percentile(ls.latencies, 0.99), "ms"},
		figure{"recover_s", median(rc.secs), "s"},
		figure{"recover_cpu_ms", mean(rc.cpuMs), "ms"},
		figure{"fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio"})
	return res, nil
}

// settledRecords counts records the origin settled and did not reject.
func settledRecords(on *originNode) float64 {
	return on.metrics.Counter("nocdn.audit.records") - on.metrics.Counter("nocdn.origin.records_rejected")
}

func peerIDs(peers []*peerNode) []string {
	ids := make([]string, len(peers))
	for i, pn := range peers {
		ids[i] = pn.id
	}
	return ids
}
