package nocdn

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpop/internal/auth"
	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// Control-plane defaults.
const (
	// DefaultSettleSampleK is how many leaves of a Merkle-committed
	// settlement batch get full signature verification. Batches at or below
	// this size are fully verified; above it, verification cost is
	// O(batches·K) instead of O(records) while the root commitment keeps any
	// tampering detectable (and sampled, it is caught with probability
	// 1-(1-f)^K for tamper fraction f).
	DefaultSettleSampleK = 16
	// DefaultGossipMismatchLimit is how many failed spot-checks a gossip
	// reporter gets before its reports are quarantined (ignored).
	DefaultGossipMismatchLimit = 3
)

// Origin is a content provider using NoCDN. It owns the content, generates
// wrapper pages, and settles usage records.
//
// Locking is split by role so the request classes never serialize against
// each other: contentMu (RWMutex) guards the published objects and pages;
// the peer directory lives in an RWMutex'd registry; the settlement ledger
// and short-term key table are sharded 32 ways by hash with per-shard locks
// (settlement for disjoint peers never contends); client→peer assignment
// reads a consistent-hash ring; and the byte counters are atomics. The only
// origin-wide mutex left (selMu) guards the legacy randomized wrapper build
// path and its cache.
type Origin struct {
	// Provider is the site identity peers virtual-host under.
	Provider string
	// Policy selects peers for objects (legacy randomized wrapper path).
	Policy SelectionPolicy
	// ChunkPeers > 1 splits large objects into that many ranges served by
	// disparate peers ("Leveraging Redundancy").
	ChunkPeers int
	// ChunkThreshold is the minimum object size to chunk (default 256 KB).
	ChunkThreshold int
	// Replicas lists that many alternate peers per whole-object wrapper
	// entry beyond the primary ("Leveraging Redundancy"): the loader can
	// route around a dead primary without an origin round trip. Bytes are
	// assigned under every replica's key too, so whichever peer actually
	// serves can settle its usage record.
	Replicas int
	// AnomalyFactor: a peer whose credited bytes exceed assigned bytes by
	// this factor is flagged and suspended (default 1.5).
	AnomalyFactor float64
	// WrapperTTL > 0 lets the origin reuse one generated wrapper per page
	// for that long instead of regenerating per view — the paper's "even
	// the wrapper page may be reused among users and/or allowed to be
	// cached by the user for a certain time", trading per-view key
	// freshness for origin CPU/selection work. A publish always invalidates
	// the cached wrapper regardless of TTL: the wrapper is the hash-epoch
	// authority, so it must never advertise hashes of superseded bytes.
	WrapperTTL time.Duration
	// PoolSlots is how many precomputed wrapper variants the pool keeps per
	// page (default 16). Clients hash onto a slot, so one page's load
	// spreads over PoolSlots distinct peer maps while any one client sees a
	// stable map.
	PoolSlots int
	// RingVnodes is the virtual-node count per peer on the assignment ring
	// (default DefaultRingVnodes).
	RingVnodes int
	// SettleSampleK overrides DefaultSettleSampleK when > 0.
	SettleSampleK int
	// GossipMismatchLimit overrides DefaultGossipMismatchLimit when > 0.
	GossipMismatchLimit int

	// ObjectMaxAge, StaleWhileRevalidate, and StaleIfError shape the
	// Cache-Control policy /content emits (see WithCachePolicy). NewOrigin
	// applies the Default* values; ObjectMaxAge < 0 means "no Cache-Control
	// header" (peers fall back to heuristic freshness).
	ObjectMaxAge         time.Duration
	StaleWhileRevalidate time.Duration
	StaleIfError         time.Duration

	// metrics, when set, receives the origin-side histograms:
	// nocdn.origin.wrapper_seconds (actual wrapper builds, reused serves
	// excluded) and nocdn.origin.settle_seconds (usage-record batch
	// settlement), plus nocdn.origin.records_rejected and the nocdn.audit.*
	// family.
	metrics *hpop.Metrics
	// tracer, when set, records settlement spans: one settle_records batch
	// span per upload (continuing the uploading peer's flush trace) and one
	// settle_record span per record (continuing the page view's trace via
	// the record's embedded traceparent).
	tracer *hpop.Tracer
	// audit is the settlement audit pipeline fed by every uploaded record.
	audit *Auditor
	// health, when set, closes the self-healing loop on the origin side:
	// probe outcomes and audit flags feed it, and wrapper generation ejects
	// unhealthy peers from new peer maps (with hysteresis — readmission goes
	// through the breaker's half-open probe cycle, never a single success).
	health *hpop.HealthRegistry
	// fleet merges peer TelemetryReports (POST /telemetry/batch) into
	// fleet.* rollups, hot-key sketches, and /debug/fleet; slo computes
	// multi-window burn rates over those rollups for /debug/slo. Both are
	// always constructed (they are cheap when nothing reports).
	fleet *FleetAggregator
	slo   *hpop.SLOEngine

	// contentMu guards the published catalog (objects, pages) and the
	// per-object header overrides. The serving hot path takes only the read
	// lock; publishes are rare writes. Object hashes are computed once at
	// publish time (AddObject), never on the serving path.
	contentMu  sync.RWMutex
	objects    map[string]*Object
	pages      map[string]*Page
	objHeaders map[string]http.Header

	// contentEpoch advances on every publish. Cached and pooled wrappers
	// record the epoch they were built under, so a publish invalidates them
	// immediately even inside WrapperTTL (hash-epoch-aware expiry).
	contentEpoch atomic.Int64
	// assignEpoch advances whenever the assignable peer set changes
	// (registration, ejection, readmission, anomaly suspension) and on
	// every EpochTick. Pooled wrapper maps are valid for one assignEpoch.
	assignEpoch atomic.Int64

	// registry is the peer directory (static ID/URL/RTT rows); ledger is
	// the sharded settlement state; ring is the consistent-hash
	// client→peer assignment structure; pool holds precomputed wrapper maps.
	registry *registry
	ledger   *ledger
	ring     *hashRing
	pool     *wrapperPool

	keys   *auth.KeyIssuer  // internally locked
	nonces *auth.NonceCache // internally locked
	now    func() time.Time

	// commitMu orders settlement commits against snapshot capture: a settle
	// record's journal append and its ledger/audit application happen
	// atomically with respect to the snapshot cut, which is what makes the
	// (only) non-idempotent record type safe to replay. Every other record
	// type replays idempotently and journals without this lock.
	commitMu sync.Mutex
	// wal, when attached, is the durable control-plane journal; walOpts and
	// walRecovery remember the attach configuration and startup replay.
	wal          *controlWAL
	walOpts      WALOptions
	walRecovery  RecoveryStats
	snapshotGate atomic.Bool

	// selMu guards the legacy wrapper build path: the selection RNG and the
	// per-page wrapper cache.
	selMu        sync.Mutex
	rng          *sim.RNG
	wrapperCache map[string]cachedWrapper

	// probeMu guards probe bookkeeping: the per-peer health verdict as of
	// the last probe pass (so transitions are detected) and the lazy client.
	probeMu      sync.Mutex
	probeHealthy map[string]bool
	probeClient  *http.Client

	// gossipMu guards delegated-probing trust state: spot-check mismatch
	// counts per reporter.
	gossipMu       sync.Mutex
	gossipMismatch map[string]int

	// wrapperGenerations counts actual wrapper builds (vs serves) for the
	// reuse experiment and the control-plane sweep's hot-path assertion.
	wrapperGenerations atomic.Int64

	// served tracks origin bytes out (wrapper + cache-miss backfill), the
	// scalability metric E4 reports. Atomic so serving never takes a lock.
	wrapperBytes atomic.Int64
	originBytes  atomic.Int64
}

// OriginOption configures an origin.
type OriginOption func(*Origin)

// WithPolicy sets the peer-selection policy.
func WithPolicy(p SelectionPolicy) OriginOption {
	return func(o *Origin) { o.Policy = p }
}

// WithChunking splits objects >= threshold bytes across n peers.
func WithChunking(n, threshold int) OriginOption {
	return func(o *Origin) {
		o.ChunkPeers = n
		o.ChunkThreshold = threshold
	}
}

// WithReplicas lists n alternate peers per whole-object wrapper entry.
func WithReplicas(n int) OriginOption {
	return func(o *Origin) { o.Replicas = n }
}

// WithHealthRegistry wires the peer-health registry at construction.
func WithHealthRegistry(h *hpop.HealthRegistry) OriginOption {
	return func(o *Origin) { o.SetHealthRegistry(h) }
}

// WithRNG injects deterministic randomness.
func WithRNG(rng *sim.RNG) OriginOption {
	return func(o *Origin) { o.rng = rng }
}

// WithClock injects a time source.
func WithClock(now func() time.Time) OriginOption {
	return func(o *Origin) { o.now = now }
}

// WithWrapperReuse enables wrapper-page reuse for the given TTL.
func WithWrapperReuse(ttl time.Duration) OriginOption {
	return func(o *Origin) { o.WrapperTTL = ttl }
}

// Default object cache policy: short freshness with modest serve-stale
// windows. Loaders don't depend on these (the wrapper hash is their
// freshness authority); they govern plain HTTP clients and give peers
// honest revalidation cadence.
const (
	DefaultObjectMaxAge         = time.Minute
	DefaultStaleWhileRevalidate = 30 * time.Second
	DefaultStaleIfError         = 5 * time.Minute
)

// WithCachePolicy sets the Cache-Control policy /content emits for every
// object (per-object overrides via SetObjectHeader win). maxAge < 0
// suppresses the header entirely; swr/sie <= 0 omit their directives.
func WithCachePolicy(maxAge, swr, sie time.Duration) OriginOption {
	return func(o *Origin) {
		o.ObjectMaxAge = maxAge
		o.StaleWhileRevalidate = swr
		o.StaleIfError = sie
	}
}

// WithMetrics wires a metrics registry for the nocdn.origin.* histograms
// and counters.
func WithMetrics(m *hpop.Metrics) OriginOption {
	return func(o *Origin) { o.SetMetrics(m) }
}

// WithTracer wires a tracer for settlement and audit spans.
func WithTracer(t *hpop.Tracer) OriginOption {
	return func(o *Origin) { o.SetTracer(t) }
}

// SetMetrics wires a metrics registry after construction (daemon wiring).
func (o *Origin) SetMetrics(m *hpop.Metrics) {
	o.metrics = m
	o.audit.SetMetrics(m)
	o.fleet.SetMetrics(m)
	o.slo.SetMetrics(m)
}

// SetTracer wires a tracer after construction (daemon wiring).
func (o *Origin) SetTracer(t *hpop.Tracer) {
	o.tracer = t
	o.audit.SetTracer(t)
	o.slo.SetTracer(t)
}

// Audit returns the origin's settlement audit pipeline.
func (o *Origin) Audit() *Auditor { return o.audit }

// SetHealthRegistry wires the peer-health registry after construction
// (daemon wiring — the same registry the loader and /debug/health use).
// Already registered peers are enrolled so their breaker gauges export.
func (o *Origin) SetHealthRegistry(h *hpop.HealthRegistry) {
	o.health = h
	// fleet is nil while options run inside NewOrigin; the constructor
	// re-wires the registry once the aggregator exists.
	o.fleet.SetHealthRegistry(h)
	for _, p := range o.registry.snapshot() {
		h.Register(p.id)
	}
}

// HealthRegistry returns the wired peer-health registry (nil when unset).
func (o *Origin) HealthRegistry() *hpop.HealthRegistry { return o.health }

// cachedWrapper is one reusable wrapper with its build time and the
// content epoch it was built under.
type cachedWrapper struct {
	wrapper *Wrapper
	builtAt time.Time
	epoch   int64
}

// NewOrigin creates a content provider.
func NewOrigin(provider string, opts ...OriginOption) *Origin {
	o := &Origin{
		Provider:             provider,
		Policy:               SelectRandom,
		ChunkThreshold:       256 << 10,
		AnomalyFactor:        1.5,
		objects:              make(map[string]*Object),
		pages:                make(map[string]*Page),
		objHeaders:           make(map[string]http.Header),
		ObjectMaxAge:         DefaultObjectMaxAge,
		StaleWhileRevalidate: DefaultStaleWhileRevalidate,
		StaleIfError:         DefaultStaleIfError,
		rng:                  sim.NewRNG(1),
		now:                  time.Now,
		registry:             newRegistry(),
		ledger:               newLedger(),
		wrapperCache:         make(map[string]cachedWrapper),
		probeHealthy:         make(map[string]bool),
		gossipMismatch:       make(map[string]int),
		pool:                 newWrapperPool(),
		audit:                NewAuditor(),
	}
	// An audit flag ejects the peer from future wrapper maps immediately.
	o.audit.OnFlag = o.ejectFlagged
	for _, fn := range opts {
		fn(o)
	}
	o.ring = newRing(o.RingVnodes)
	o.keys = auth.NewKeyIssuer(10*time.Minute, o.now)
	o.nonces = auth.NewNonceCache(time.Hour, o.now)
	// The telemetry plane shares the origin's (possibly fake) clock, so
	// staleness windows and burn rates advance deterministically in tests.
	o.fleet = NewFleetAggregator(o.now)
	o.slo = hpop.NewSLOEngine(o.now)
	o.fleet.SetSLOEngine(o.slo)
	o.DeclareFleetSLOs(DefaultAvailabilityObjective, DefaultServeLatencyObjective, DefaultServeSLOThreshold)
	if o.health != nil {
		o.fleet.SetHealthRegistry(o.health)
	}
	if o.metrics != nil {
		o.fleet.SetMetrics(o.metrics)
		o.slo.SetMetrics(o.metrics)
	}
	if o.tracer != nil {
		o.slo.SetTracer(o.tracer)
	}
	return o
}

// Default fleet SLO objectives.
const (
	// DefaultAvailabilityObjective is the fleet availability target: at
	// most 1 in 1000 proxy requests may fail or shed.
	DefaultAvailabilityObjective = 0.999
	// DefaultServeLatencyObjective is the fleet serve-latency target: 99%
	// of serves complete within the serve threshold.
	DefaultServeLatencyObjective = 0.99
)

// DeclareFleetSLOs (re)declares the origin's three fleet SLOs:
// availability, serve latency (good = served within thresholdSeconds), and
// the zero-tolerance unverified-bytes budget. Out-of-range objectives keep
// the defaults; accumulated burn state survives re-declaration.
func (o *Origin) DeclareFleetSLOs(availability, latency, thresholdSeconds float64) {
	if availability <= 0 || availability > 1 {
		availability = DefaultAvailabilityObjective
	}
	if latency <= 0 || latency > 1 {
		latency = DefaultServeLatencyObjective
	}
	if thresholdSeconds > 0 {
		o.fleet.ServeSLOThreshold = thresholdSeconds
	}
	o.slo.Declare(hpop.SLOConfig{
		Name:        SLOFleetAvailability,
		Description: "fleet proxy requests that served bytes (failed or shed requests burn the budget)",
		Objective:   availability,
	})
	o.slo.Declare(hpop.SLOConfig{
		Name:        SLOFleetServeLatency,
		Description: fmt.Sprintf("fleet serves completing within %.3fs", o.fleet.serveThreshold()),
		Objective:   latency,
	})
	o.slo.Declare(hpop.SLOConfig{
		Name:        SLOZeroUnverified,
		Description: "unverified bytes caught at peers (quarantines); any event empties the budget",
		Objective:   1,
	})
}

// Fleet returns the origin's telemetry aggregator.
func (o *Origin) Fleet() *FleetAggregator { return o.fleet }

// SLOEngine returns the origin's SLO engine.
func (o *Origin) SLOEngine() *hpop.SLOEngine { return o.slo }

// AddObject registers content. The integrity hash is precomputed here, so
// neither wrapper generation nor content serving ever hashes on a hot path.
// The Content-Type is detected from the path extension (falling back to
// content sniffing); use AddObjectWithType to set it explicitly. Publishing
// advances the content epoch, which invalidates any cached wrappers — they
// carry per-object hashes and must never outlive the bytes they attest.
func (o *Origin) AddObject(path string, data []byte) {
	o.AddObjectWithType(path, data, detectContentType(path, data))
}

// AddObjectWithType registers content with an explicit media type.
func (o *Origin) AddObjectWithType(path string, data []byte, contentType string) {
	obj := &Object{Path: path, Data: data, Hash: HashBytes(data), ContentType: contentType}
	o.contentMu.Lock()
	o.objects[path] = obj
	o.contentMu.Unlock()
	o.contentEpoch.Add(1)
}

// detectContentType resolves a published object's media type: the path
// extension first (stable across republish), content sniffing second.
func detectContentType(path string, data []byte) string {
	if dot := strings.LastIndexByte(path, '.'); dot >= 0 && !strings.ContainsRune(path[dot:], '/') {
		if ct := mime.TypeByExtension(path[dot:]); ct != "" {
			return ct
		}
	}
	return http.DetectContentType(data)
}

// SetObjectHeader overrides (or, with an empty value, clears) one response
// header /content sends for path — how a provider opts an object into
// no-store, a longer max-age, an Expires date, or Vary keying. Counts as a
// publish for wrapper-cache purposes: policy changes take effect on the
// next wrapper, not after WrapperTTL.
func (o *Origin) SetObjectHeader(path, name, value string) {
	o.contentMu.Lock()
	h := o.objHeaders[path]
	if h == nil {
		h = make(http.Header)
		o.objHeaders[path] = h
	}
	if value == "" {
		h.Del(name)
	} else {
		h.Set(name, value)
	}
	o.contentMu.Unlock()
	o.contentEpoch.Add(1)
}

// AddPage registers a page (container + embedded object paths). All paths
// must already exist as objects.
func (o *Origin) AddPage(p Page) error {
	o.contentMu.Lock()
	defer o.contentMu.Unlock()
	if _, ok := o.objects[p.Container]; !ok {
		return fmt.Errorf("%w: container %s", ErrUnknownObject, p.Container)
	}
	for _, e := range p.Embedded {
		if _, ok := o.objects[e]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownObject, e)
		}
	}
	o.pages[p.Name] = &p
	return nil
}

// RegisterPeer recruits a peer: directory row, health enrollment, and a set
// of virtual nodes on the assignment ring. Fleet changes advance the
// assignment epoch so pooled wrapper maps refresh to include (or drop) the
// peer on their next serve.
func (o *Origin) RegisterPeer(id, url string, rttMillis float64) {
	o.health.Register(id)
	o.registry.add(id, url, rttMillis)
	o.ring.add(id)
	ep := o.assignEpoch.Add(1)
	// Apply-then-journal: every effect above replays idempotently, so a
	// crash between apply and append loses nothing that was acknowledged.
	o.journalPeerRegister(id, url, rttMillis, ep)
}

// peerSnapshot materializes the legacy []*PeerInfo view: directory rows
// with the mutable Assigned/Suspended state filled from the ledger.
func (o *Origin) peerSnapshot() []*PeerInfo {
	static := o.registry.snapshot()
	out := make([]*PeerInfo, len(static))
	for i, p := range static {
		out[i] = &PeerInfo{
			ID:        p.id,
			URL:       p.url,
			RTTMillis: p.rtt,
			Assigned:  int(o.ledger.assignedCount(p.id)),
			Suspended: o.ledger.isSuspended(p.id),
		}
	}
	return out
}

// Peers returns a snapshot of the registry.
func (o *Origin) Peers() []PeerInfo {
	ptrs := o.peerSnapshot()
	out := make([]PeerInfo, len(ptrs))
	for i, p := range ptrs {
		out[i] = *p
	}
	return out
}

// refMeta is the publish-time object metadata wrapper generation needs —
// snapshotted under the content read lock so generation itself never holds
// the content lock.
type refMeta struct {
	hash string
	size int
}

// pageMeta snapshots one page's layout and object metadata under the
// content read lock: the ordered paths (container first) and each object's
// publish-time hash and size.
func (o *Origin) pageMeta(page string) ([]string, map[string]refMeta, error) {
	o.contentMu.RLock()
	defer o.contentMu.RUnlock()
	p, ok := o.pages[page]
	if !ok {
		return nil, nil, ErrUnknownPage
	}
	paths := append([]string{p.Container}, p.Embedded...)
	meta := make(map[string]refMeta, len(paths))
	for _, path := range paths {
		obj := o.objects[path]
		meta[path] = refMeta{hash: obj.Hash, size: len(obj.Data)}
	}
	return paths, meta, nil
}

// GenerateWrapper builds the wrapper page for one page view: peer
// assignments, hashes, per-peer short-term keys, and a nonce. With
// WrapperTTL set, an unexpired previously built wrapper is reused instead.
//
// This is the legacy randomized path (policy-ranked, fresh selection per
// build). AssignWrapper is the pooled consistent-hash path; /wrapper routes
// to it when the client identifies itself.
func (o *Origin) GenerateWrapper(page string) (*Wrapper, error) {
	paths, meta, err := o.pageMeta(page)
	if err != nil {
		return nil, err
	}

	epoch := o.contentEpoch.Load()
	o.selMu.Lock()
	defer o.selMu.Unlock()
	if o.WrapperTTL > 0 {
		// Reuse demands both an unexpired TTL and an unchanged content
		// epoch: a publish inside the TTL window supersedes object hashes,
		// and a wrapper advertising superseded hashes would force every
		// loader into origin fallback (peers' fresh bytes would "fail"
		// verification against the stale wrapper).
		if cw, ok := o.wrapperCache[page]; ok && cw.epoch == epoch && o.now().Sub(cw.builtAt) < o.WrapperTTL {
			return cw.wrapper, nil
		}
	}
	o.wrapperGenerations.Add(1)
	buildStart := time.Now()
	defer func() {
		o.metrics.Observe("nocdn.origin.wrapper_seconds", time.Since(buildStart).Seconds())
	}()
	ranked := rank(o.peerSnapshot(), o.Policy, o.rng.Float64)
	if len(ranked) == 0 {
		return nil, ErrNoPeers
	}
	// Health gate: eject open-circuit and audit-flagged peers from the new
	// map. If that would empty a non-empty candidate list, keep the full
	// list (degraded — the loader's own breakers and origin fallback still
	// protect the page) rather than refusing to serve wrappers at all.
	if o.health != nil {
		healthy := make([]*PeerInfo, 0, len(ranked))
		for _, p := range ranked {
			if o.health.Healthy(p.ID) {
				healthy = append(healthy, p)
			}
		}
		if len(healthy) > 0 {
			ranked = healthy
		} else {
			o.metrics.Inc("nocdn.origin.wrapper_degraded")
		}
	}

	w := &Wrapper{
		Provider: o.Provider,
		Page:     page,
		Keys:     make(map[string]PeerKey),
		Nonce:    auth.NewNonce(),
		IssuedAt: o.now(),
		Loader:   "loader-v1",
	}
	var charges []charge
	next := 0
	pick := func() *PeerInfo {
		peer := ranked[next%len(ranked)]
		next++
		peer.Assigned++
		return peer
	}
	ensureKey := func(peer *PeerInfo, size int) {
		if _, ok := w.Keys[peer.ID]; !ok {
			k := o.keys.Issue(peer.ID)
			w.Keys[peer.ID] = PeerKey{KeyID: k.ID, Secret: hexEncode(k.Secret)}
			o.ledger.issueKey(k.ID, peer.ID)
		}
		kid := w.Keys[peer.ID].KeyID
		o.ledger.addKeyBytes(kid, int64(size))
		charges = append(charges, charge{peerID: peer.ID, bytes: int64(size)})
	}
	makeRef := func(path string) ObjectRef {
		m := meta[path]
		ref := ObjectRef{Path: path, Hash: m.hash, Size: m.size}
		if o.ChunkPeers > 1 && m.size >= o.ChunkThreshold && len(ranked) > 1 {
			n := o.ChunkPeers
			if n > len(ranked) {
				n = len(ranked)
			}
			chunk := (m.size + n - 1) / n
			for i := 0; i < n; i++ {
				off := i * chunk
				ln := chunk
				if off+ln > m.size {
					ln = m.size - off
				}
				peer := pick()
				ensureKey(peer, ln)
				ref.Chunks = append(ref.Chunks, ChunkRef{
					PeerID: peer.ID, PeerURL: peer.URL, Offset: off, Length: ln,
				})
			}
			return ref
		}
		peer := pick()
		ensureKey(peer, m.size)
		ref.PeerID = peer.ID
		ref.PeerURL = peer.URL
		// Replicas: the next distinct peers in the ranking. Each gets a key
		// and a byte assignment too, so a failover serve settles exactly.
		if o.Replicas > 0 && len(ranked) > 1 {
			seen := map[string]bool{peer.ID: true}
			for i := 0; len(ref.Replicas) < o.Replicas && i < len(ranked); i++ {
				rp := ranked[(next+i)%len(ranked)]
				if seen[rp.ID] {
					continue
				}
				seen[rp.ID] = true
				ensureKey(rp, m.size)
				ref.Replicas = append(ref.Replicas, PeerRef{PeerID: rp.ID, PeerURL: rp.URL})
			}
		}
		return ref
	}
	w.Container = makeRef(paths[0])
	for _, e := range paths[1:] {
		w.Objects = append(w.Objects, makeRef(e))
	}
	o.ledger.assignCharges(charges)
	// The key table must be durable before the wrapper leaves the origin:
	// records signed under these keys must still settle after a crash.
	// Charges are already in the ledger here, so no pending delta.
	o.journalKeysIssued(w, nil)
	if o.WrapperTTL > 0 {
		o.wrapperCache[page] = cachedWrapper{wrapper: w, builtAt: o.now(), epoch: epoch}
	}
	return w, nil
}

// WrapperGenerations returns how many wrappers were actually built (reused
// and pooled serves do not count) — the savings metric for wrapper reuse
// and the control-plane sweep's hot-path assertion.
func (o *Origin) WrapperGenerations() int64 {
	return o.wrapperGenerations.Load()
}

func hexEncode(b []byte) string { return fmt.Sprintf("%x", b) }

// randIntn draws from the origin's deterministic RNG under the selection
// lock (probe sampling and gossip spot-checks share it).
func (o *Origin) randIntn(n int) int {
	o.selMu.Lock()
	defer o.selMu.Unlock()
	return o.rng.Intn(n)
}

// invalidateWrappers drops every cached legacy wrapper and advances the
// assignment epoch so pooled maps rebuild on their next serve.
func (o *Origin) invalidateWrappers() {
	o.selMu.Lock()
	o.wrapperCache = make(map[string]cachedWrapper)
	o.selMu.Unlock()
	o.assignEpoch.Add(1)
}

// etagMatches implements the If-None-Match comparison: "*" matches any
// representation, otherwise each listed (possibly W/-prefixed) tag is
// weak-compared against the current one.
func etagMatches(ifNoneMatch, etag string) bool {
	if strings.TrimSpace(ifNoneMatch) == "*" {
		return true
	}
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// ---- settlement ----

// SettleRecords processes a batch of uploaded usage records from one peer.
// Each record must carry a valid signature under a key this origin issued
// for that peer, a fresh nonce, and a plausible byte count. It returns how
// many records were credited.
func (o *Origin) SettleRecords(records []UsageRecord) int {
	return o.settleBatch(hpop.TraceContext{}, records)
}

// settleBatch settles one legacy (uncommitted) upload. Verification runs
// per record, but the ledger writes are accumulated and applied once per
// involved shard at the end — the ledger lock is no longer taken per
// record. The batch span continues the uploading peer's flush trace
// (parent, from the request's traceparent header); each per-record span
// continues the page view's trace via the traceparent the loader embedded
// (and signed) in the record — if that is absent or malformed, the record
// span falls back to a child of the batch span.
func (o *Origin) settleBatch(parent hpop.TraceContext, records []UsageRecord) int {
	sp := o.tracer.StartRemote("nocdn.origin", "settle_records", parent)
	sp.SetLabel("records", strconv.Itoa(len(records)))
	defer sp.End()
	start := time.Now()
	creditDeltas := make(map[string]int64)
	rejectCounts := make(map[string]int64)
	involved := make(map[string]struct{})
	outcomes := make([]settleOutcome, 0, len(records))
	batchPeer, mixedPeers := "", false
	for _, r := range records {
		var rsp *hpop.Span
		if rtc, perr := hpop.ParseTraceparent(r.Traceparent); perr == nil {
			rsp = o.tracer.StartRemote("nocdn.origin", "settle_record", rtc)
		} else {
			rsp = sp.Child("settle_record")
		}
		rsp.SetLabel("peer", r.PeerID)
		rsp.SetLabel("bytes", strconv.FormatInt(r.Bytes, 10))
		err := o.settleOne(r)
		oc := settleOutcome{rec: r, err: err}
		involved[r.PeerID] = struct{}{}
		if batchPeer == "" {
			batchPeer = r.PeerID
		} else if r.PeerID != batchPeer {
			mixedPeers = true
		}
		if err != nil {
			outcomes = append(outcomes, oc)
			rejectCounts[r.PeerID]++
			o.metrics.Inc("nocdn.origin.records_rejected")
			rsp.SetError(err)
			rsp.End()
			continue
		}
		// Credit is tentative until the commit consumes the nonce; a replay
		// detected there demotes the record to a rejection.
		oc.nonceKey = r.KeyID + "|" + r.Nonce
		outcomes = append(outcomes, oc)
		creditDeltas[r.PeerID] += r.Bytes
		rsp.End()
	}
	if mixedPeers {
		// A legacy /usage batch may mix peers; naming any single one in the
		// journal would be misleading metadata (credits/rejects are per-peer
		// maps either way).
		batchPeer = ""
	}
	credited, _ := o.commitSettlement(walSettleRec{
		PeerID:  batchPeer,
		At:      o.now().UnixNano(),
		Credits: creditDeltas,
		Rejects: rejectCounts,
	}, "", involved, outcomes)
	sp.SetLabel("credited", strconv.Itoa(credited))
	o.metrics.Observe("nocdn.origin.settle_seconds", time.Since(start).Seconds())
	return credited
}

// commitSettlement is the durable apply step every settlement path funnels
// through: under the commit lock the batch's nonces are consumed, the settle
// record (credits, rejects, consumed nonces, audit deltas, assigned floors)
// is journaled, and only then is it applied to the ledger and auditor — so a
// snapshot can never capture a half-applied batch, nor a consumed nonce
// whose settle record is not yet journaled. Consuming nonces any earlier
// opens a credit-loss window: a snapshot cut between consumption and the
// journal append would, after a crash, restore the nonce as spent while the
// credit was never journaled, bouncing the peer's retry of a never-acked
// batch as a replay. The fsync wait happens after the lock is released
// (group commit), before the caller acknowledges the peer.
//
// batchNonce, when non-empty, is the whole-batch replay guard: if it was
// already consumed the commit aborts with the replay error and no state
// changes (the earlier settlement of the same commitment already journaled
// its decision). A per-record nonce that turns out to be consumed — an
// earlier commit won the race — demotes that record from credit to a replay
// rejection in both the journal record and the applied deltas. Returns how
// many records were actually credited.
func (o *Origin) commitSettlement(rec walSettleRec, batchNonce string, involved map[string]struct{}, outcomes []settleOutcome) (int, error) {
	var endSeq uint64
	o.commitMu.Lock()
	if batchNonce != "" {
		if err := o.nonces.Use(batchNonce); err != nil {
			o.commitMu.Unlock()
			return 0, err
		}
		rec.Nonces = append(rec.Nonces, batchNonce)
	}
	credited := 0
	for i := range outcomes {
		oc := &outcomes[i]
		if oc.err != nil || oc.nonceKey == "" {
			continue
		}
		if uerr := o.nonces.Use(oc.nonceKey); uerr != nil {
			oc.err = fmt.Errorf("%w: %w", ErrBadRecord, uerr)
			oc.replayed = errors.Is(uerr, auth.ErrReplayed)
			if rec.Credits != nil {
				rec.Credits[oc.rec.PeerID] -= oc.rec.Bytes
				if rec.Credits[oc.rec.PeerID] == 0 {
					delete(rec.Credits, oc.rec.PeerID)
				}
			}
			if rec.Rejects == nil {
				rec.Rejects = make(map[string]int64)
			}
			rec.Rejects[oc.rec.PeerID]++
			o.metrics.Inc("nocdn.origin.records_rejected")
			continue
		}
		rec.Nonces = append(rec.Nonces, oc.nonceKey)
		credited++
	}
	// Deltas are built after the nonce pass so the journaled statistics
	// carry the final (post-replay-demotion) verdicts.
	deltas := buildAuditDeltas(outcomes)
	if o.wal != nil {
		rec.Audit = deltas
		// Absolute assigned-bytes floors for the involved peers: per-serve
		// wrapper charges are not journaled (hot path), so the settle
		// record carries the running totals and replay floors them — the
		// anomaly ratio stays sane across a restart.
		rec.Assigned = make(map[string]int64, len(involved))
		for id := range involved {
			_, assigned, _, _ := o.ledger.row(id)
			rec.Assigned[id] = assigned
		}
		o.journalAppend(walSettle, rec)
	}
	o.ledger.creditBatch(rec.Credits)
	o.ledger.rejectBatch(rec.Rejects)
	o.audit.observeSettled(outcomes, deltas)
	o.suspendAnomalous(involved)
	if o.wal != nil {
		// Wait through the last record this commit produced (the settle
		// append plus any suspension/flag records it cascaded into).
		endSeq, _ = o.wal.position()
	}
	o.commitMu.Unlock()
	o.walWait(endSeq)
	o.maybeSnapshot()
	return credited, nil
}

// settleOne fully verifies one record (signature included). It does NOT
// consume the nonce or write credits — both happen under the commit lock in
// commitSettlement, so verification never serializes other committers and a
// snapshot can never observe a nonce ahead of its journal record.
func (o *Origin) settleOne(r UsageRecord) error {
	if r.Provider != o.Provider {
		return ErrBadRecord
	}
	key, err := o.keys.Lookup(r.KeyID)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	issuedFor, maxBytes, _ := o.ledger.keyInfo(r.KeyID)
	if issuedFor != r.PeerID {
		return fmt.Errorf("%w: key issued for different peer", ErrBadRecord)
	}
	if err := r.VerifySignature(key.Secret); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	// A single key covers one wrapper issuance; claiming more bytes than
	// were assigned under it is definitionally inflation.
	if r.Bytes < 0 || r.Bytes > maxBytes {
		return fmt.Errorf("%w: implausible byte count", ErrBadRecord)
	}
	return nil
}

// commitRecord runs the cheap (non-cryptographic) settlement checks for one
// record inside an accepted Merkle batch. Signature verification is what
// sampling elides: the batch root committed the peer to these exact bytes,
// and the sampled leaves' signatures all verified. The nonce is consumed at
// commit time, not here.
func (o *Origin) commitRecord(r UsageRecord, batchPeer string) error {
	if r.Provider != o.Provider {
		return ErrBadRecord
	}
	if r.PeerID != batchPeer {
		return fmt.Errorf("%w: record peer %q in batch from %q", ErrBadRecord, r.PeerID, batchPeer)
	}
	if _, err := o.keys.Lookup(r.KeyID); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	issuedFor, maxBytes, _ := o.ledger.keyInfo(r.KeyID)
	if issuedFor != r.PeerID {
		return fmt.Errorf("%w: key issued for different peer", ErrBadRecord)
	}
	if r.Bytes < 0 || r.Bytes > maxBytes {
		return fmt.Errorf("%w: implausible byte count", ErrBadRecord)
	}
	return nil
}

// verifyRecordFull is the sampled-leaf check: everything settleOne verifies
// except the nonce (nonces are only consumed once the whole batch is
// accepted, so a rejected batch leaves settlement state untouched).
func (o *Origin) verifyRecordFull(r UsageRecord, batchPeer string) error {
	if r.Provider != o.Provider {
		return ErrBadRecord
	}
	if r.PeerID != batchPeer {
		return fmt.Errorf("%w: record peer %q in batch from %q", ErrBadRecord, r.PeerID, batchPeer)
	}
	key, err := o.keys.Lookup(r.KeyID)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	issuedFor, maxBytes, _ := o.ledger.keyInfo(r.KeyID)
	if issuedFor != r.PeerID {
		return fmt.Errorf("%w: key issued for different peer", ErrBadRecord)
	}
	if err := r.VerifySignature(key.Secret); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	if r.Bytes < 0 || r.Bytes > maxBytes {
		return fmt.Errorf("%w: implausible byte count", ErrBadRecord)
	}
	return nil
}

func (o *Origin) settleSampleK() int {
	if o.SettleSampleK > 0 {
		return o.SettleSampleK
	}
	return DefaultSettleSampleK
}

// sampleIndices picks k distinct leaf indices in [0, n) deterministically
// from the batch root — the peer cannot predict the sample before
// committing to the root, and any verifier can reproduce it.
func sampleIndices(root string, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seed := uint64(1)
	if len(root) >= 16 {
		if v, err := strconv.ParseUint(root[:16], 16, 64); err == nil {
			seed = v
		}
	}
	rng := sim.NewRNG(seed)
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := rng.Intn(n)
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// SettleBatch settles a Merkle-committed record batch: the root is
// recomputed over the uploaded records (any tampered, dropped, reordered,
// or injected record changes it and rejects the batch), the root's nonce
// guards whole-batch replay, and K deterministically sampled leaves get
// full signature verification. A sampled leaf that fails is cryptographic
// evidence — the peer committed to a record that does not verify — so the
// peer is flagged straight into the audit pipeline and the batch is
// rejected with no nonce consumed. Accepted batches settle every record
// under one per-shard ledger acquisition: cheap bounds/nonce checks keep
// accounting exact while the expensive HMAC work stays O(K).
func (o *Origin) SettleBatch(b RecordBatch) (int, error) {
	return o.settleMerkle(hpop.TraceContext{}, b)
}

func (o *Origin) settleMerkle(parent hpop.TraceContext, b RecordBatch) (int, error) {
	sp := o.tracer.StartRemote("nocdn.origin", "settle_batch", parent)
	sp.SetLabel("peer", b.PeerID)
	sp.SetLabel("records", strconv.Itoa(len(b.Records)))
	defer sp.End()
	start := time.Now()
	o.metrics.Inc("nocdn.origin.batches")

	leaves := make([][]byte, len(b.Records))
	for i := range b.Records {
		leaves[i] = b.Records[i].LeafBytes()
	}
	involved := map[string]struct{}{b.PeerID: {}}
	if MerkleRoot(leaves) != b.Root {
		o.metrics.Inc("nocdn.origin.batches_rejected")
		// A rejection is still a settlement outcome — the peer must not
		// retry it — so it journals like one (no nonce was consumed).
		o.commitSettlement(walSettleRec{
			PeerID:  b.PeerID,
			Root:    b.Root,
			At:      o.now().UnixNano(),
			Rejects: map[string]int64{b.PeerID: int64(len(b.Records))},
		}, "", involved, nil)
		err := fmt.Errorf("%w: root mismatch", ErrBadBatch)
		sp.SetError(err)
		return 0, err
	}
	if len(b.Records) == 0 {
		return 0, nil
	}
	// The batch nonce ("batch|root", the whole-batch replay guard) is NOT
	// consumed here: commitSettlement consumes it under the commit lock,
	// atomically with the journal append, and aborts the commit when the
	// root was already settled. A replayed batch therefore wastes the
	// sampling work below, but replays are rare and a nonce consumed before
	// the journal cut could strand the peer's credit across a crash.
	batchNonce := "batch|" + b.Root

	idxs := sampleIndices(b.Root, len(b.Records), o.settleSampleK())
	sp.SetLabel("sampled", strconv.Itoa(len(idxs)))
	for _, i := range idxs {
		o.metrics.Inc("nocdn.origin.sampled_leaves")
		if err := o.verifyRecordFull(b.Records[i], b.PeerID); err != nil {
			// Feed the auditor both statistically (the record observation)
			// and directly (tamper evidence flags without waiting for a
			// score), then reject the whole batch. The batch nonce is
			// consumed with the rejection's journal record — a crash must
			// not reopen the root to a "fixed" replay.
			o.metrics.Inc("nocdn.origin.sample_failures")
			o.metrics.Inc("nocdn.origin.batches_rejected")
			if _, cerr := o.commitSettlement(walSettleRec{
				PeerID:  b.PeerID,
				Root:    b.Root,
				At:      o.now().UnixNano(),
				Rejects: map[string]int64{b.PeerID: int64(len(b.Records))},
			}, batchNonce, involved, []settleOutcome{{rec: b.Records[i], err: err}}); cerr != nil {
				// Replayed root: the first settlement of this commitment
				// already journaled the rejection and flagged the peer.
				o.metrics.Inc("nocdn.origin.batches_replayed")
				cerr = fmt.Errorf("%w: %w", ErrBadBatch, cerr)
				sp.SetError(cerr)
				return 0, cerr
			}
			o.audit.FlagTampered(b.PeerID, err)
			err = fmt.Errorf("%w: sampled leaf %d: %v", ErrBadBatch, i, err)
			sp.SetError(err)
			return 0, err
		}
	}

	creditDeltas := make(map[string]int64)
	rejectCounts := make(map[string]int64)
	outcomes := make([]settleOutcome, 0, len(b.Records))
	for i := range b.Records {
		r := b.Records[i]
		// Each record's span continues the page view's trace via the signed
		// traceparent, exactly as the legacy per-record path does — batching
		// must not sever the loader→peer→origin settlement leg.
		var rsp *hpop.Span
		if rtc, perr := hpop.ParseTraceparent(r.Traceparent); perr == nil {
			rsp = o.tracer.StartRemote("nocdn.origin", "settle_record", rtc)
		} else {
			rsp = sp.Child("settle_record")
		}
		rsp.SetLabel("peer", r.PeerID)
		rsp.SetLabel("bytes", strconv.FormatInt(r.Bytes, 10))
		err := o.commitRecord(r, b.PeerID)
		oc := settleOutcome{rec: r, err: err}
		if err != nil {
			outcomes = append(outcomes, oc)
			rejectCounts[r.PeerID]++
			o.metrics.Inc("nocdn.origin.records_rejected")
			rsp.SetError(err)
			rsp.End()
			continue
		}
		oc.nonceKey = r.KeyID + "|" + r.Nonce
		outcomes = append(outcomes, oc)
		creditDeltas[r.PeerID] += r.Bytes
		rsp.End()
	}
	credited, cerr := o.commitSettlement(walSettleRec{
		PeerID:  b.PeerID,
		Root:    b.Root,
		At:      o.now().UnixNano(),
		Credits: creditDeltas,
		Rejects: rejectCounts,
	}, batchNonce, involved, outcomes)
	if cerr != nil {
		o.metrics.Inc("nocdn.origin.batches_replayed")
		cerr = fmt.Errorf("%w: %w", ErrBadBatch, cerr)
		sp.SetError(cerr)
		return 0, cerr
	}
	sp.SetLabel("credited", strconv.Itoa(credited))
	o.metrics.Observe("nocdn.origin.settle_seconds", time.Since(start).Seconds())
	return credited, nil
}

// suspendAnomalous runs anomaly detection over the peers a settlement
// touched (credits only move for peers in the batch, so scanning the fleet
// would find nothing more) and pulls pooled wrapper maps naming newly
// suspended peers.
func (o *Origin) suspendAnomalous(involved map[string]struct{}) {
	newly := o.ledger.anomalyCheck(involved, o.AnomalyFactor)
	if len(newly) > 0 {
		o.assignEpoch.Add(1)
		sort.Strings(newly)
		for _, id := range newly {
			o.metrics.Inc("nocdn.origin.anomaly_suspensions")
			o.journalSuspend(id)
		}
	}
}

// ejectFlagged pulls an audit-flagged peer from rotation: it is marked in
// the health registry (so wrapper generation and the loader both shun it),
// suspended in the ledger, and cached/pooled wrappers naming it are
// invalidated so the next page view gets a clean map.
func (o *Origin) ejectFlagged(peerID string) {
	o.health.SetFlagged(peerID, true)
	o.ledger.suspend(peerID)
	o.invalidateWrappers()
	o.metrics.Inc("nocdn.origin.peer_ejections")
	// The flag and its consequences must survive a restart: tampering
	// evidence is exactly the state an attacker would most like a crash to
	// erase.
	o.journalAuditFlag(peerID, "audit_flag")
}

// ---- health probing ----

// ProbePeers runs one full health-probe pass: every registered peer's GET
// /health endpoint is polled. At fleet scale prefer ProbeSample plus
// delegated gossip (ReportGossip) — this full scan is O(fleet).
func (o *Origin) ProbePeers(ctx context.Context) {
	if o.health == nil {
		return
	}
	sp := o.tracer.Start("nocdn.origin", "probe_peers")
	defer sp.End()
	o.probeList(ctx, sp, o.registry.snapshot())
}

// ProbeSample probes k randomly sampled registered peers — the origin's
// trust-but-verify share of delegated health probing. Gossip covers the
// fleet; the sample keeps reporters honest and catches silent corners.
func (o *Origin) ProbeSample(ctx context.Context, k int) {
	if o.health == nil {
		return
	}
	sp := o.tracer.Start("nocdn.origin", "probe_sample")
	sp.SetLabel("k", strconv.Itoa(k))
	defer sp.End()
	o.probeList(ctx, sp, o.registry.sample(k, o.randIntn))
}

// probeList probes one set of peers, feeding outcomes and self-reported
// saturation into the health registry (respecting each peer's breaker — an
// open breaker skips the network until its cooldown grants a half-open
// probe). Any ejection or readmission transition invalidates cached and
// pooled wrappers so the next wrapper reflects the new peer map. A peer
// reporting saturation >= 1 (actively shedding) counts as a probe failure:
// new maps route around it until it drains. Readmission has hysteresis by
// construction — it takes the breaker's full half-open probe cycle, never a
// single good poll.
func (o *Origin) probeList(ctx context.Context, sp *hpop.Span, peers []peerStatic) {
	client := o.httpProbeClient()
	for _, p := range peers {
		if !o.health.Allow(p.id) {
			continue // open breaker: wait out the cooldown
		}
		start := time.Now()
		ok, saturation := o.probeOne(ctx, client, p.url)
		if ok {
			o.health.RecordSuccess(p.id, time.Since(start).Seconds())
			o.health.ReportSaturation(p.id, saturation)
		} else {
			o.health.RecordFailure(p.id)
		}
		o.noteHealthTransition(sp, p.id)
	}
}

// httpProbeClient lazily builds the bounded probe client.
func (o *Origin) httpProbeClient() *http.Client {
	o.probeMu.Lock()
	defer o.probeMu.Unlock()
	if o.probeClient == nil {
		o.probeClient = &http.Client{Timeout: 2 * time.Second}
	}
	return o.probeClient
}

// noteHealthTransition compares a peer's current health verdict against the
// last recorded one; on a transition it invalidates wrapper state and
// emits the ejection/readmission metric and span.
func (o *Origin) noteHealthTransition(sp *hpop.Span, peerID string) {
	after := o.health.Healthy(peerID)
	o.probeMu.Lock()
	before, known := o.probeHealthy[peerID]
	if !known {
		before = true
	}
	o.probeHealthy[peerID] = after
	transition := before != after
	o.probeMu.Unlock()
	if !transition {
		return
	}
	o.invalidateWrappers()
	name := "peer_ejected"
	metric := "nocdn.origin.peer_ejections"
	if after {
		name = "peer_readmitted"
		metric = "nocdn.origin.peer_readmissions"
	}
	o.metrics.Inc(metric)
	tsp := sp.Child(name)
	tsp.SetLabel("peer", peerID)
	tsp.End()
}

// probeOne polls one peer's /health endpoint, returning success and the
// peer's self-reported saturation. A shedding peer (saturation >= 1) fails
// the probe. A 200 with an unparsable body still counts as up (older peers
// without the report shape).
func (o *Origin) probeOne(ctx context.Context, client *http.Client, peerURL string) (ok bool, saturation float64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL+"/health", nil)
	if err != nil {
		return false, 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, 0
	}
	var rep PeerHealthReport
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&rep); err == nil {
		if rep.Saturation >= 1 {
			return false, rep.Saturation
		}
		return true, rep.Saturation
	}
	return true, 0
}

// ---- delegated health gossip ----

// PeerObservation is one neighbor's health as a gossiping peer saw it.
type PeerObservation struct {
	PeerID         string  `json:"peerId"`
	Healthy        bool    `json:"healthy"`
	LatencySeconds float64 `json:"latencySeconds"`
	Saturation     float64 `json:"saturation"`
}

// GossipReport is a peer's upload of neighbor health summaries — the
// delegated share of fleet probing. POST /gossip carries this shape.
type GossipReport struct {
	From         string            `json:"from"`
	Observations []PeerObservation `json:"observations"`
}

func (o *Origin) gossipMismatchLimit() int {
	if o.GossipMismatchLimit > 0 {
		return o.GossipMismatchLimit
	}
	return DefaultGossipMismatchLimit
}

// ReportGossip ingests one peer's neighbor health report. Observations
// about unregistered peers are dropped. The origin trusts but verifies:
// one randomly chosen observation per report is spot-checked with a direct
// probe, and a reporter whose claims keep contradicting direct evidence is
// quarantined (subsequent reports ignored). Returns how many observations
// were applied.
func (o *Origin) ReportGossip(ctx context.Context, rep GossipReport) int {
	if o.health == nil || len(rep.Observations) == 0 {
		return 0
	}
	sp := o.tracer.Start("nocdn.origin", "gossip_report")
	sp.SetLabel("from", rep.From)
	sp.SetLabel("observations", strconv.Itoa(len(rep.Observations)))
	defer sp.End()
	o.metrics.Inc("nocdn.origin.gossip_reports")

	o.gossipMu.Lock()
	quarantined := o.gossipMismatch[rep.From] >= o.gossipMismatchLimit()
	o.gossipMu.Unlock()
	if quarantined {
		o.metrics.Inc("nocdn.origin.gossip_quarantined")
		sp.SetLabel("quarantined", "true")
		return 0
	}

	// Spot-check one observation against a direct probe before applying any
	// of the report: a reporter contradicted by direct evidence gets a
	// mismatch strike and the report is dropped.
	pick := rep.Observations[o.randIntn(len(rep.Observations))]
	if p, ok := o.registry.get(pick.PeerID); ok {
		probeOK, _ := o.probeOne(ctx, o.httpProbeClient(), p.url)
		if probeOK != pick.Healthy {
			o.gossipMu.Lock()
			o.gossipMismatch[rep.From]++
			strikes := o.gossipMismatch[rep.From]
			o.gossipMu.Unlock()
			o.metrics.Inc("nocdn.origin.gossip_mismatches")
			sp.SetLabel("mismatch_strikes", strconv.Itoa(strikes))
			return 0
		}
	}

	applied := 0
	for _, obs := range rep.Observations {
		if obs.PeerID == rep.From {
			continue // self-reports don't count as neighbor evidence
		}
		if _, ok := o.registry.get(obs.PeerID); !ok {
			continue
		}
		if obs.Healthy {
			o.health.RecordSuccess(obs.PeerID, obs.LatencySeconds)
			o.health.ReportSaturation(obs.PeerID, obs.Saturation)
		} else {
			o.health.RecordFailure(obs.PeerID)
		}
		o.noteHealthTransition(sp, obs.PeerID)
		applied++
	}
	sp.SetLabel("applied", strconv.Itoa(applied))
	return applied
}

// Neighbors returns up to n of a peer's ring successors — the neighbor set
// it should probe and gossip about. Derived from the consistent-hash ring,
// so the fleet's probe graph shifts only ~1/N on membership changes.
func (o *Origin) Neighbors(peerID string, n int) []PeerInfo {
	ids := o.ring.successors("nbr|"+peerID, n, func(id string) bool {
		return id != peerID && !o.ledger.isSuspended(id)
	})
	out := make([]PeerInfo, 0, len(ids))
	for _, id := range ids {
		if p, ok := o.registry.get(id); ok {
			out = append(out, PeerInfo{ID: p.id, URL: p.url, RTTMillis: p.rtt})
		}
	}
	return out
}

// ---- accounting ----

// Accounting summarizes settlement state for one peer.
type Accounting struct {
	PeerID        string `json:"peerId"`
	CreditedBytes int64  `json:"creditedBytes"`
	AssignedBytes int64  `json:"assignedBytes"`
	Rejected      int64  `json:"rejected"`
	Suspended     bool   `json:"suspended"`
}

// AccountingFor returns one peer's ledger row.
func (o *Origin) AccountingFor(peerID string) Accounting {
	credited, assigned, rejected, suspended := o.ledger.row(peerID)
	return Accounting{
		PeerID:        peerID,
		CreditedBytes: credited,
		AssignedBytes: assigned,
		Rejected:      rejected,
		Suspended:     suspended,
	}
}

// WrapperBytes returns bytes served as wrapper pages.
func (o *Origin) WrapperBytes() int64 { return o.wrapperBytes.Load() }

// OriginBytes returns bytes served as raw content (peer cache-miss
// backfill plus any client integrity fallbacks).
func (o *Origin) OriginBytes() int64 { return o.originBytes.Load() }

// TotalPageBytes returns the full byte weight of a page (what a CDN-less
// origin would serve per view).
func (o *Origin) TotalPageBytes(page string) (int64, error) {
	o.contentMu.RLock()
	defer o.contentMu.RUnlock()
	p, ok := o.pages[page]
	if !ok {
		return 0, ErrUnknownPage
	}
	total := int64(len(o.objects[p.Container].Data))
	for _, e := range p.Embedded {
		total += int64(len(o.objects[e].Data))
	}
	return total, nil
}

// ---- HTTP surface ----

// Handler returns the origin's HTTP handler:
//
//	GET  /wrapper?page=NAME[&client=ID] -> wrapper page JSON (client set:
//	                                       pooled consistent-hash map)
//	GET  /content/PATH        -> raw object (peer backfill / client fallback)
//	POST /usage               -> usage-record batch upload (legacy)
//	POST /usage/batch         -> Merkle-committed record batch upload
//	POST /gossip              -> delegated neighbor-health report
//	GET  /neighbors?peer=ID   -> the peer's ring-successor probe set
//	GET  /accounting?peer=ID  -> the peer's settlement ledger row JSON
//	GET  /debug/audit         -> settlement audit snapshot JSON
//	GET  /debug/health        -> peer-health registry snapshot JSON
//	GET  /debug/wal           -> durable control-plane (WAL) status JSON
//
// Every endpoint continues the caller's distributed trace when the request
// carries a traceparent header; absent or malformed headers open fresh
// roots.
func (o *Origin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/wrapper", func(w http.ResponseWriter, r *http.Request) {
		sp := o.tracer.StartRemote("nocdn.origin", "wrapper", hpop.ExtractTraceparent(r.Header))
		defer sp.End()
		q := r.URL.Query()
		page := q.Get("page")
		client := q.Get("client")
		sp.SetLabel("page", page)
		var wrapper *Wrapper
		var err error
		if client != "" {
			sp.SetLabel("client", client)
			wrapper, err = o.AssignWrapper(page, client)
		} else {
			wrapper, err = o.GenerateWrapper(page)
		}
		if err != nil {
			sp.SetError(err)
			status := http.StatusNotFound
			if err == ErrNoPeers {
				status = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), status)
			return
		}
		body, err := json.Marshal(wrapper)
		if err != nil {
			sp.SetError(err)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		o.wrapperBytes.Add(int64(len(body)))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
	mux.HandleFunc("/content/", func(w http.ResponseWriter, r *http.Request) {
		sp := o.tracer.StartRemote("nocdn.origin", "serve_content", hpop.ExtractTraceparent(r.Header))
		defer sp.End()
		path := strings.TrimPrefix(r.URL.Path, "/content")
		sp.SetLabel("path", path)
		o.contentMu.RLock()
		obj, ok := o.objects[path]
		var overrides http.Header
		if h := o.objHeaders[path]; h != nil {
			overrides = h.Clone()
		}
		o.contentMu.RUnlock()
		if !ok {
			sp.SetError(ErrUnknownObject)
			http.Error(w, "unknown object", http.StatusNotFound)
			return
		}
		// The strong validator is the object's integrity hash itself, so a
		// 304 is exactly the hash-epoch check over plain HTTP.
		etag := `"` + obj.Hash + `"`
		hdr := w.Header()
		hdr.Set("ETag", etag)
		hdr.Set(ExpectHashHeader, obj.Hash)
		if obj.ContentType != "" {
			hdr.Set("Content-Type", obj.ContentType)
		}
		if o.ObjectMaxAge >= 0 {
			hdr.Set("Cache-Control", FormatCacheControl(o.ObjectMaxAge, o.StaleWhileRevalidate, o.StaleIfError))
		}
		for name, vals := range overrides {
			hdr.Del(name)
			for _, v := range vals {
				hdr.Add(name, v)
			}
		}
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		o.originBytes.Add(int64(len(obj.Data)))
		hdr.Set("Content-Length", strconv.Itoa(len(obj.Data)))
		w.Write(obj.Data)
	})
	mux.HandleFunc("/usage", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
		if err != nil {
			http.Error(w, "read body", http.StatusBadRequest)
			return
		}
		records, err := DecodeRecords(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := o.settleBatch(hpop.ExtractTraceparent(r.Header), records)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"credited":%d,"submitted":%d}`, n, len(records))
	})
	mux.HandleFunc("/usage/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 8<<20))
		if err != nil {
			http.Error(w, "read body", http.StatusBadRequest)
			return
		}
		batch, err := DecodeBatch(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n, err := o.settleMerkle(hpop.ExtractTraceparent(r.Header), batch)
		if err != nil {
			// 400: the batch is settled from the peer's perspective (it must
			// not retry a rejected or replayed commitment).
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"credited":%d,"submitted":%d}`, n, len(batch.Records))
	})
	mux.HandleFunc("/gossip", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var rep GossipReport
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&rep); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		applied := o.ReportGossip(r.Context(), rep)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"applied":%d}`, applied)
	})
	mux.HandleFunc("/neighbors", func(w http.ResponseWriter, r *http.Request) {
		peer := r.URL.Query().Get("peer")
		if peer == "" {
			http.Error(w, "peer required", http.StatusBadRequest)
			return
		}
		n := 3
		if v := r.URL.Query().Get("n"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 && parsed <= 32 {
				n = parsed
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(o.Neighbors(peer, n))
	})
	mux.HandleFunc("/accounting", func(w http.ResponseWriter, r *http.Request) {
		peer := r.URL.Query().Get("peer")
		if peer == "" {
			http.Error(w, "peer required", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(o.AccountingFor(peer))
	})
	mux.HandleFunc("/telemetry/batch", o.fleet.BatchHandler())
	mux.HandleFunc("/debug/wal", o.WALHandler())
	mux.HandleFunc("/debug/fleet", o.fleet.Handler())
	mux.HandleFunc("/debug/slo", o.slo.Handler())
	mux.HandleFunc("/debug/audit", o.audit.Handler())
	mux.HandleFunc("/debug/health", o.health.Handler())
	return mux
}
