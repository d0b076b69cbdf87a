package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// The benchmark's own tracing: spans recorded at the boundaries the
// benchmark mounts — each root operation it issues (a page view, a
// settlement batch, a wrapper read, a flush, an epoch tick, a recovery)
// and every HTTP handler of the origin and peers, split by path. Spans
// live in memory and are written out when the run ends. A traced run
// issues one root at a time, so every handler interval belongs to exactly
// one root; nothing inside the program is instrumented.

// span is one recorded interval. Times are offsets from the recorder's
// epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Root   int64  `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) iv() interval { return interval{time.Duration(s.Start), time.Duration(s.End)} }

// recorder collects spans while a traced root is open; with tracing off
// it records nothing and mounts handlers unwrapped.
type recorder struct {
	epoch  time.Time
	traced bool

	mu     sync.Mutex
	root   int64
	nextID int64
	spans  []span
	conns  map[int64]int // new connections accepted per root
}

func newRecorder(traced bool) *recorder {
	return &recorder{epoch: time.Now(), traced: traced, conns: make(map[int64]int)}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// begin opens a root span when tracing is on and returns its id (0 when
// off). Roots never overlap in a traced run.
func (r *recorder) begin(on bool) int64 {
	if !r.traced || !on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.root = r.nextID
	return r.root
}

// end closes root id with its measured interval.
func (r *recorder) end(id int64, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Root: id, Name: name, Start: r.since(start), End: r.since(end)})
	r.root = 0
}

// handlerKind names a request by the endpoint it hit.
func handlerKind(path string) string {
	switch {
	case path == "/wrapper":
		return "wrapper"
	case strings.HasPrefix(path, "/content/"):
		return "content"
	case strings.HasPrefix(path, "/proxy/"):
		return "proxy"
	case path == "/record":
		return "record"
	case path == "/usage/batch":
		return "usage_batch"
	case path == "/usage":
		return "usage"
	}
	return "other"
}

// mount wraps one server's handler at its boundary. server is "origin" or
// "peer".
func (r *recorder) mount(server string, h http.Handler) http.Handler {
	if !r.traced {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.root == 0 {
			return
		}
		r.nextID++
		r.spans = append(r.spans, span{
			ID: r.nextID, Parent: r.root, Root: r.root, Name: server + " " + handlerKind(req.URL.Path),
			Start: r.since(start), End: r.since(end),
		})
	})
}

// connState counts accepted connections against the open root.
func (r *recorder) connState(_ net.Conn, s http.ConnState) {
	if s != http.StateNew {
		return
	}
	r.mu.Lock()
	if r.root != 0 {
		r.conns[r.root]++
	}
	r.mu.Unlock()
}

// rootView is one closed root with its children, grouped by handler kind.
type rootView struct {
	root     span
	children map[string][]span
	conns    int
	requests int
}

// roots groups the recorded spans under their roots and links each origin
// /content span that falls inside a peer /proxy/ span (a backfill) to it.
func (r *recorder) roots() []rootView {
	r.mu.Lock()
	defer r.mu.Unlock()
	byRoot := make(map[int64]*rootView)
	var order []int64
	for _, s := range r.spans {
		if s.ID == s.Root {
			byRoot[s.ID] = &rootView{root: s, children: make(map[string][]span), conns: r.conns[s.ID]}
			order = append(order, s.ID)
		}
	}
	for _, s := range r.spans {
		if s.ID == s.Root {
			continue
		}
		rv := byRoot[s.Root]
		if rv == nil {
			continue // root still open when the run ended
		}
		rv.children[s.Name] = append(rv.children[s.Name], s)
		rv.requests++
	}
	for _, rv := range byRoot {
		for i := range rv.children["origin content"] {
			c := &rv.children["origin content"][i]
			for _, p := range rv.children["peer proxy"] {
				if p.Start <= c.Start && c.End <= p.End {
					c.Parent = p.ID
					break
				}
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]rootView, 0, len(order))
	for _, id := range order {
		out = append(out, *byRoot[id])
	}
	return out
}

// ivs returns the clipped intervals of the named children.
func (rv rootView) ivs(names ...string) []interval {
	var out []interval
	for _, n := range names {
		for _, c := range rv.children[n] {
			iv := c.iv()
			iv.start = max(iv.start, time.Duration(rv.root.Start))
			iv.end = min(iv.end, time.Duration(rv.root.End))
			if iv.end > iv.start {
				out = append(out, iv)
			}
		}
	}
	return out
}

func (rv rootView) dur() time.Duration { return time.Duration(rv.root.End - rv.root.Start) }

// selfTimes splits one root's duration into per-layer self time: each
// layer's handler coverage minus the part its own children cover, and the
// root's self time as its duration minus the union of all handler
// intervals. Layers are named by the modules that serve them.
func (rv rootView) selfTimes() map[string]time.Duration {
	all := union(rv.ivs(childNames(rv)...))
	out := map[string]time.Duration{}
	switch rv.root.Name {
	case "view":
		out["loader"] = rv.dur() - covered(all)
		out["wrapper"] = covered(union(rv.ivs("origin wrapper")))
		proxy := union(rv.ivs("peer proxy"))
		var nested []interval
		for _, c := range rv.children["origin content"] {
			if c.Parent != rv.root.ID {
				nested = append(nested, c.iv())
			}
		}
		out["peer"] = covered(proxy) - overlap(proxy, union(nested))
		out["origin_content"] = covered(union(rv.ivs("origin content")))
		out["record"] = covered(union(rv.ivs("peer record")))
	case "flush":
		out["flush"] = rv.dur() - covered(all)
		out["settle"] = covered(union(rv.ivs("origin usage_batch")))
	case "batch":
		out["client"] = rv.dur() - covered(all)
		out["settle"] = covered(union(rv.ivs("origin usage_batch", "origin usage")))
	case "wrapper_get":
		out["client"] = rv.dur() - covered(all)
		out["wrapper"] = covered(union(rv.ivs("origin wrapper")))
	default: // epoch_tick, recover, publish: no HTTP children
		out[rv.root.Name] = rv.dur() - covered(all)
	}
	return out
}

func childNames(rv rootView) []string {
	names := make([]string, 0, len(rv.children))
	for n := range rv.children {
		names = append(names, n)
	}
	return names
}

// childDurations returns the durations, ms, of every child span with the
// given name across the roots.
func childDurations(rvs []rootView, name string) []float64 {
	var out []float64
	for _, rv := range rvs {
		for _, c := range rv.children[name] {
			out = append(out, float64(c.End-c.Start)/1e6)
		}
	}
	return out
}

// selfTable aggregates self time per root kind and layer: the mean per
// root, and the layer's share of the mean root duration.
type selfRow struct {
	kind, layer string
	roots       int
	meanRootMs  float64
	meanSelfMs  float64
}

func selfTable(rvs []rootView) []selfRow {
	type acc struct {
		roots int
		dur   time.Duration
		self  map[string]time.Duration
	}
	kinds := map[string]*acc{}
	for _, rv := range rvs {
		a := kinds[rv.root.Name]
		if a == nil {
			a = &acc{self: map[string]time.Duration{}}
			kinds[rv.root.Name] = a
		}
		a.roots++
		a.dur += rv.dur()
		for layer, d := range rv.selfTimes() {
			a.self[layer] += d
		}
	}
	var out []selfRow
	for kind, a := range kinds {
		for layer, d := range a.self {
			out = append(out, selfRow{
				kind: kind, layer: layer, roots: a.roots,
				meanRootMs: ms(a.dur) / float64(a.roots),
				meanSelfMs: ms(d) / float64(a.roots),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].kind != out[j].kind {
			return out[i].kind < out[j].kind
		}
		return out[i].meanSelfMs > out[j].meanSelfMs
	})
	return out
}

// meanSelf is the mean self time, ms, of layer over the roots of kind.
func meanSelf(rows []selfRow, kind, layer string) float64 {
	for _, r := range rows {
		if r.kind == kind && r.layer == layer {
			return r.meanSelfMs
		}
	}
	return 0
}

func printSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "self time by layer (traced roots; mean per root)\n")
	fmt.Fprintf(w, "  %-12s %-15s %7s %10s %10s %7s\n", "root", "layer", "roots", "root ms", "self ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %-15s %7d %10.4f %10.4f %6.1f%%\n",
			r.kind, r.layer, r.roots, r.meanRootMs, r.meanSelfMs, 100*ratio(r.meanSelfMs, r.meanRootMs))
	}
}

// writeSpans writes every recorded span as one JSON object per line.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
