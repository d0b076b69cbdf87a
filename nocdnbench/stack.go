package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hpop/internal/faults"
	"hpop/internal/hpop"
	"hpop/internal/nocdn"
)

const provider = "bench.example"

// server is one loopback HTTP listener serving a mounted handler.
type server struct {
	srv *http.Server
	url string
}

func serve(rec *recorder, name string, h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: rec.mount(name, h)}
	if rec.traced {
		srv.ConnState = rec.connState
	}
	go srv.Serve(ln)
	return &server{srv: srv, url: "http://" + ln.Addr().String()}, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
}

// newHealth builds a health registry with the daemon's default breaker
// flags.
func newHealth(m *hpop.Metrics) *hpop.HealthRegistry {
	h := hpop.NewHealthRegistry(hpop.BreakerConfig{
		Window:           hpop.DefaultBreakerWindow,
		FailureThreshold: hpop.DefaultFailureThreshold,
		Cooldown:         hpop.DefaultBreakerCooldown,
		ProbeBudget:      hpop.DefaultProbeBudget,
		ReadmitAfter:     hpop.DefaultReadmitAfter,
	})
	h.SetMetrics(m)
	return h
}

// originNode is the origin wired as the daemon's origin mode wires it:
// metrics registry, tracer, health registry, and a WAL with the default
// fsync policy attached before any content is published.
type originNode struct {
	o       *nocdn.Origin
	metrics *hpop.Metrics
	walDir  string
}

// newOriginNode also returns the wall and process CPU time AttachWAL took.
func newOriginNode(walDir string) (*originNode, nocdn.RecoveryStats, time.Duration, time.Duration, error) {
	m := hpop.NewMetrics()
	o := nocdn.NewOrigin(provider,
		nocdn.WithReplicas(0),
		nocdn.WithCachePolicy(nocdn.DefaultObjectMaxAge, nocdn.DefaultStaleWhileRevalidate, nocdn.DefaultStaleIfError),
		nocdn.WithHealthRegistry(newHealth(m)))
	o.SetMetrics(m)
	o.SetTracer(hpop.NewTracer(0))
	o.DeclareFleetSLOs(nocdn.DefaultAvailabilityObjective, nocdn.DefaultServeLatencyObjective, 0)
	policy, err := nocdn.ParseFsyncPolicy("always")
	if err != nil {
		return nil, nocdn.RecoveryStats{}, 0, 0, err
	}
	start, cpu0 := time.Now(), cpuTime()
	stats, err := o.AttachWAL(walDir, nocdn.WALOptions{Fsync: policy})
	took, cpu := time.Since(start), cpuTime()-cpu0
	if err != nil {
		return nil, stats, took, cpu, fmt.Errorf("attach WAL: %w", err)
	}
	return &originNode{o: o, metrics: m, walDir: walDir}, stats, took, cpu, nil
}

// peerNode is one live peer wired as the daemon's peer mode wires it.
type peerNode struct {
	id      string
	p       *nocdn.Peer
	metrics *hpop.Metrics
	srv     *server
}

func newPeerNode(rec *recorder, id string, sp spec, dir, originURL string) (*peerNode, error) {
	m := hpop.NewMetrics()
	p := nocdn.NewPeer(id, sp.peerCacheBytes)
	p.SetFetchTimeout(nocdn.DefaultFetchTimeout)
	p.SetMetrics(m)
	p.SetTracer(hpop.NewTracer(0))
	if sp.diskTier {
		if err := p.AttachDiskCache(dir, 1<<30, 64<<20); err != nil {
			return nil, err
		}
		p.StartCacheScrub(0)
		if err := p.AttachRecordSpool(dir); err != nil {
			p.CloseDiskCache()
			return nil, err
		}
	}
	p.SignUp(provider, originURL)
	srv, err := serve(rec, "peer", p.Handler())
	if err != nil {
		return nil, err
	}
	return &peerNode{id: id, p: p, metrics: m, srv: srv}, nil
}

func (pn *peerNode) close(sp spec) {
	pn.srv.close()
	if sp.diskTier {
		pn.p.CloseRecordSpool()
		pn.p.CloseDiskCache()
	}
}

// loaders hands out one default Loader per client identity, wired as the
// daemon's load mode wires it; each builds its own HTTP client lazily.
type loaders struct {
	originURL string
	metrics   *hpop.Metrics
	tracer    *hpop.Tracer
	health    *hpop.HealthRegistry
	byClient  map[string]*nocdn.Loader
}

func newLoaders(originURL string) *loaders {
	m := hpop.NewMetrics()
	return &loaders{
		originURL: originURL, metrics: m, tracer: hpop.NewTracer(0),
		health: newHealth(m), byClient: make(map[string]*nocdn.Loader),
	}
}

// get is called from the generator goroutines only after prepare has
// created every loader, so the map is read-only while views run.
func (ls *loaders) get(client string) *nocdn.Loader { return ls.byClient[client] }

func (ls *loaders) prepare(clients []string) {
	for _, c := range clients {
		if _, ok := ls.byClient[c]; ok {
			continue
		}
		ls.byClient[c] = &nocdn.Loader{
			OriginURL:    ls.originURL,
			ClientID:     c,
			Concurrency:  nocdn.DefaultConcurrency,
			FetchTimeout: nocdn.DefaultFetchTimeout,
			Retry:        faults.Policy{MaxAttempts: faults.DefaultMaxAttempts},
			Metrics:      ls.metrics,
			Tracer:       ls.tracer,
			Health:       ls.health,
		}
	}
}

// benchClient is the benchmark's own HTTP client, for the requests it
// issues itself (cache warming, settlement batches, wrapper reads). It is
// never handed to the program.
func benchClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// fetch issues one request with the benchmark client and drains the reply.
func fetch(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// setUp builds a stack reps times, timing each build; every stack but the
// last is torn down, and the last is returned to be measured.
func setUp[S interface{ close() }](reps int, work string, build func(dir string) (S, error)) (S, []float64, error) {
	var secs []float64
	for r := 0; ; r++ {
		dir := filepath.Join(work, fmt.Sprintf("stack-%d", r))
		t0 := time.Now()
		st, err := build(dir)
		if err != nil {
			return st, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if r >= reps-1 {
			return st, secs, nil
		}
		st.close()
		if err := os.RemoveAll(dir); err != nil {
			return st, nil, err
		}
	}
}

// copyDir copies a flat directory (the WAL: journal files and snapshots),
// which is exactly what an unclean stop leaves on disk.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files in dir matching pattern.
func dirBytes(dir, pattern string) int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, pattern))
	var n int64
	for _, p := range paths {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}
