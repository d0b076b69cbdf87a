package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"hpop/internal/hpop"
	"hpop/internal/nocdn"
)

// layerMarks is the program's own counters and histograms at one phase
// boundary; per-layer counts are the differences between two marks.
type layerMarks struct {
	wrapperGens, wrapperBytes  int64
	retries, fallbacks, revals float64
	memHits, diskHits, misses  int64
	dropped                    int64
	batches, records, sampled  float64
	rejects, appends, fsyncs   float64
	hitMem, hitDisk, miss      histMark
	walAppend, walSnapshot     histMark
}

func markLayers(on *originNode, peers []*peerNode, loader *hpop.Metrics) layerMarks {
	regs := make([]*hpop.Metrics, len(peers))
	var mk layerMarks
	for i, pn := range peers {
		regs[i] = pn.metrics
		m, d, x := pn.p.TierStats()
		mk.memHits, mk.diskHits, mk.misses = mk.memHits+m, mk.diskHits+d, mk.misses+x
		mk.dropped += pn.p.DroppedRecords()
	}
	om := on.metrics
	mk.wrapperGens = on.o.WrapperGenerations()
	mk.wrapperBytes = on.o.WrapperBytes()
	mk.retries = loader.Counter("nocdn.loader.retries")
	mk.fallbacks = loader.Counter("nocdn.loader.fallbacks")
	mk.revals = counterSum("nocdn.peer.revalidations", regs...)
	mk.batches = om.Counter("nocdn.origin.batches")
	mk.records = om.Counter("nocdn.audit.records")
	mk.sampled = om.Counter("nocdn.origin.sampled_leaves")
	mk.rejects = om.Counter("nocdn.origin.records_rejected")
	mk.appends = om.Counter("nocdn.wal.appends")
	mk.fsyncs = om.Counter("nocdn.wal.fsyncs")
	mk.hitMem = markHists("nocdn.cache.hit_seconds.mem", regs...)
	mk.hitDisk = markHists("nocdn.cache.hit_seconds.disk", regs...)
	mk.miss = markHists("nocdn.cache.miss_seconds", regs...)
	mk.walAppend = markHists("nocdn.wal.append_seconds", om)
	mk.walSnapshot = markHists("nocdn.wal.snapshot_seconds", om)
	return mk
}

// tracedPhase is what a traced replay hands to the per-layer report.
type tracedPhase struct {
	a, b             layerMarks
	views, reads     float64 // page views; wrapper serves (views, or wrapper reads)
	tracedOps, plain []float64
	pendingPeak      int64
	auditPeers       int
	rc               recovery
}

// layerMetrics fills every per-layer metric; a layer the workload does not
// exercise reports 0.
func layerMetrics(res *result, rec *recorder, tp tracedPhase) []selfRow {
	rvs := rec.roots()
	rows := selfTable(rvs)
	by := map[string][]rootView{}
	for _, rv := range rvs {
		by[rv.root.Name] = append(by[rv.root.Name], rv)
	}
	views, reads := by["view"], append(by["view"], by["wrapper_get"]...)
	a, b := tp.a, tp.b
	perK := func(delta, n float64) float64 { return 1000 * ratio(delta, n) }

	var conns, reqs []float64
	for _, rv := range views {
		conns = append(conns, float64(rv.conns))
		reqs = append(reqs, float64(rv.requests))
	}
	res.set("loader.self_ms", meanSelf(rows, "view", "loader"))
	res.set("loader.conns_per_view", mean(conns))
	res.set("loader.requests_per_view", mean(reqs))
	res.set("loader.retries_per_kview", perK(b.retries-a.retries, tp.views))
	res.set("loader.fallbacks_per_kview", perK(b.fallbacks-a.fallbacks, tp.views))

	wrapperServes := childDurations(reads, "origin wrapper")
	res.set("wrapper.serve_p50_ms", median(wrapperServes))
	res.set("wrapper.serve_p99_ms", percentile(wrapperServes, 0.99))
	res.set("wrapper.self_ms", meanSelf(rows, "view", "wrapper")+meanSelf(rows, "wrapper_get", "wrapper"))
	res.set("wrapper.builds_per_kview", perK(float64(b.wrapperGens-a.wrapperGens), tp.reads))
	res.set("wrapper.kb_per_view", ratio(float64(b.wrapperBytes-a.wrapperBytes)/1024, tp.reads))
	var ticks []float64
	for _, rv := range by["epoch_tick"] {
		ticks = append(ticks, ms(rv.dur()))
	}
	res.set("wrapper.epoch_tick_ms", mean(ticks))

	proxy := childDurations(views, "peer proxy")
	res.set("peer.serve_p50_ms", median(proxy))
	res.set("peer.serve_p99_ms", percentile(proxy, 0.99))
	res.set("peer.self_ms", meanSelf(rows, "view", "peer"))
	res.set("peer.hit_mem_p50_ms", quantileSince(a.hitMem, b.hitMem, 0.5))
	mem, disk, miss := float64(b.memHits-a.memHits), float64(b.diskHits-a.diskHits), float64(b.misses-a.misses)
	res.set("peer.hit_ratio_mem", ratio(mem, mem+disk+miss))
	res.set("peer.hit_ratio_disk", ratio(disk, mem+disk+miss))
	res.set("peer.miss_ratio", ratio(miss, mem+disk+miss))
	res.set("peer.miss_p50_ms", quantileSince(a.miss, b.miss, 0.5))
	res.set("peer.revalidations_per_kview", perK(b.revals-a.revals, tp.views))
	res.set("origin_content.self_ms", meanSelf(rows, "view", "origin_content"))
	res.set("segstore.hit_disk_p50_ms", quantileSince(a.hitDisk, b.hitDisk, 0.5))

	res.set("record.deliver_p50_ms", median(childDurations(views, "peer record")))
	res.set("record.self_ms", meanSelf(rows, "view", "record"))
	res.set("record.pending_peak", float64(tp.pendingPeak))
	res.set("record.rejected", float64(b.dropped-a.dropped))
	var flushes []float64
	for _, rv := range by["flush"] {
		flushes = append(flushes, ms(rv.dur()))
	}
	res.set("flush.p50_ms", median(flushes))
	res.set("flush.p99_ms", percentile(flushes, 0.99))
	res.set("flush.self_ms", meanSelf(rows, "flush", "flush"))

	settles := childDurations(append(by["flush"], by["batch"]...), "origin usage_batch")
	batches := b.batches - a.batches
	res.set("settle.handler_p50_ms", median(settles))
	res.set("settle.handler_p99_ms", percentile(settles, 0.99))
	res.set("settle.self_ms", meanSelf(rows, "flush", "settle")+meanSelf(rows, "batch", "settle"))
	res.set("settle.records_per_batch", ratio(b.records-a.records, batches))
	res.set("settle.sampled_leaves_per_batch", ratio(b.sampled-a.sampled, batches))
	res.set("settle.rejects", b.rejects-a.rejects)
	var client []float64
	for _, rv := range append(by["batch"], by["wrapper_get"]...) {
		client = append(client, ms(rv.selfTimes()["client"]))
	}
	res.set("client.self_ms", mean(client))
	res.set("audit.peers", float64(tp.auditPeers))

	res.set("wal.append_p99_ms", quantileSince(a.walAppend, b.walAppend, 0.99))
	res.set("wal.fsyncs_per_batch", ratio(b.fsyncs-a.fsyncs, batches))
	res.set("wal.records_per_fsync", ratio(b.appends-a.appends, b.fsyncs-a.fsyncs))
	journaled := tp.rc.stats.RecordsReplayed + tp.rc.stats.RecordsSkipped
	res.set("wal.bytes_per_record", ratio(float64(tp.rc.walTail), float64(journaled)))
	res.set("wal.snapshot_p50_ms", quantileSince(a.walSnapshot, b.walSnapshot, 0.5))
	res.set("recover.records_replayed", float64(tp.rc.stats.RecordsReplayed))
	res.set("recover.records_per_s", ratio(float64(tp.rc.stats.RecordsReplayed), median(tp.rc.secs)))
	res.set("recover.cpu_ms", mean(tp.rc.cpuMs))

	res.set("trace.op_p50_ms", median(tp.tracedOps))
	res.set("trace.untraced_op_p50_ms", median(tp.plain))
	res.set("trace.overhead_ms", median(tp.tracedOps)-median(tp.plain))
	return rows
}

// runTraced replays the workload's inputs one root operation at a time —
// alternate roots traced and untraced, so the difference of their medians
// is the tracing overhead — and reports the per-layer metrics.
func runTraced(sp spec, seed uint64, seconds float64, work, spansPath string, out io.Writer) (*result, error) {
	rec := newRecorder(true)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var tp tracedPhase
	var err error
	if sp.settle {
		tp, err = tracedSettle(sp, seed, seconds, work, rec, res)
	} else {
		tp, err = tracedViews(sp, seed, seconds, work, rec, res)
	}
	if err != nil {
		return nil, err
	}
	rows := layerMetrics(res, rec, tp)
	printSelfTable(out, rows)
	fmt.Fprintf(out, "tracing overhead: traced root p50 %.4f ms vs untraced %.4f ms (%d vs %d roots)\n",
		median(tp.tracedOps), median(tp.plain), len(tp.tracedOps), len(tp.plain))
	if err := rec.writeSpans(spansPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", spansPath)
	return res, nil
}

func tracedViews(sp spec, seed uint64, seconds float64, work string, rec *recorder, res *result) (tracedPhase, error) {
	var tp tracedPhase
	in := newViewInputs(sp, seed, seconds)
	st, _, err := setUp(1, work, func(dir string) (*viewStack, error) { return setupViews(in, rec, dir) })
	if err != nil {
		return tp, err
	}
	defer st.close()
	cut := filepath.Join(work, "cut")
	if err := copyDir(st.on.walDir, cut); err != nil {
		return tp, err
	}
	rows := ledgerRows(st.on.o, peerIDs(st.peers))

	var pendingPeak atomic.Int64
	tp.a = markLayers(st.on, st.peers, st.ls.metrics)
	m := startMeter(func() {
		for _, pn := range st.peers {
			if n := int64(pn.p.PendingRecords()); n > pendingPeak.Load() {
				pendingPeak.Store(n)
			}
		}
	})
	start := time.Now()
	lastFlush := start
	flushEvery := time.Duration(sp.flushEvery * float64(time.Second))
	pub := 0
	var flushes, flushFail, viewFail int
	for i, v := range in.views {
		if time.Since(start) >= time.Duration(seconds*float64(time.Second)) {
			break
		}
		for pub < len(in.publishes) && (float64(pub)+0.5)/sp.publishRate <= (float64(i)+0.5)/sp.viewRate {
			id := rec.begin(true)
			t0 := time.Now()
			st.publish(in.publishes[pub])
			rec.end(id, "publish", t0, time.Now())
			pub++
		}
		if time.Since(lastFlush) >= flushEvery {
			a, f := st.flushAll(true)
			flushes, flushFail = flushes+a, flushFail+f
			lastFlush = time.Now()
		}
		traced := i%2 == 1
		id := rec.begin(traced)
		t0 := time.Now()
		failure, problem := st.view(v)
		t1 := time.Now()
		rec.end(id, "view", t0, t1)
		if traced {
			tp.tracedOps = append(tp.tracedOps, ms(t1.Sub(t0)))
		} else {
			tp.plain = append(tp.plain, ms(t1.Sub(t0)))
		}
		if failure != "" {
			viewFail++
		}
		res.fail(problem)
		tp.views++
	}
	a, f := st.drain()
	flushes, flushFail = flushes+a, flushFail+f
	m.finish()
	tp.b = markLayers(st.on, st.peers, st.ls.metrics)
	tp.reads = tp.views
	tp.pendingPeak = pendingPeak.Load()
	tp.auditPeers = len(st.on.o.Audit().Snapshot().Peers)
	res.fail(st.checkCredit())
	if tp.rc, err = recoverFrom(rec, cut, work, rows, true); err != nil {
		return tp, err
	}
	res.fail(tp.rc.problem)
	res.Attempted = int64(tp.views) + int64(flushes) + int64(pub)
	res.Failed = int64(viewFail + flushFail)
	return tp, nil
}

func tracedSettle(sp spec, seed uint64, seconds float64, work string, rec *recorder, res *result) (tracedPhase, error) {
	var tp tracedPhase
	in := newSettleInputs(sp, seed, seconds)
	st, _, err := setUp(1, work, func(dir string) (*settleStack, error) { return setupSettle(in, rec, dir) })
	if err != nil {
		return tp, err
	}
	defer st.close()
	pool, err := st.presign()
	if err != nil {
		return tp, err
	}
	cut := filepath.Join(work, "cut")
	var rows map[string]nocdn.Accounting
	var t settleTally
	tp.a = markLayers(st.on, nil, nil)
	m := startMeter(nil)
	for b := 0; b < len(pool); b++ {
		if b > 0 && b%sp.tickEvery == 0 {
			st.tick(&t, true)
		}
		if b == sp.recoverCut {
			if err := m.pause(func() (err error) { rows, err = st.cutWAL(cut); return err }); err != nil {
				return tp, err
			}
		}
		traced := b%2 == 1
		st.submit(pool[b], &t, traced)
		if traced {
			tp.tracedOps = append(tp.tracedOps, t.batchMs[len(t.batchMs)-1])
		} else {
			tp.plain = append(tp.plain, t.batchMs[len(t.batchMs)-1])
		}
		for k := 0; k < sp.wrapperGetsPerBatch; k++ {
			id := rec.begin(traced)
			t0 := time.Now()
			err := st.getWrapper(in.readers[b*sp.wrapperGetsPerBatch+k])
			rec.end(id, "wrapper_get", t0, time.Now())
			t.reads++
			if err != nil {
				t.readFail++
			}
		}
	}
	m.finish()
	tp.b = markLayers(st.on, nil, nil)
	tp.reads = float64(t.reads)
	tp.auditPeers = len(st.on.o.Audit().Snapshot().Peers)
	res.fail(t.problem)
	if t.credited != t.submitted {
		res.fail(fmt.Sprintf("credited %d of %d submitted records", t.credited, t.submitted))
	}
	res.fail(st.checkCredit())
	if tp.rc, err = recoverFrom(rec, cut, work, rows, true); err != nil {
		return tp, err
	}
	res.fail(tp.rc.problem)
	res.Attempted = int64(t.batches + t.reads)
	res.Failed = int64(t.batchFail + t.readFail)
	return tp, nil
}
