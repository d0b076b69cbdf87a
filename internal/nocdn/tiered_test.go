package nocdn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hpop/internal/hpop"
	"hpop/internal/sim"
)

// tieredSite is one origin + one disk-tiered peer over real HTTP. The
// memory tier is deliberately tiny so the working set churns through the
// segment store.
type tieredSite struct {
	origin  *httptest.Server
	peer    *Peer
	peerSrv *httptest.Server
	objects map[string][]byte
	fetches atomic.Int64
}

func newTieredSite(t *testing.T, memBytes int, diskBytes, segBytes int64, objects map[string][]byte) *tieredSite {
	t.Helper()
	s := &tieredSite{objects: objects}
	s.origin = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.fetches.Add(1)
		data, ok := objects[strings.TrimPrefix(r.URL.Path, "/content")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(data)
	}))
	t.Cleanup(s.origin.Close)
	s.peer = NewPeer("tiered", memBytes)
	s.peer.SetMetrics(hpop.NewMetrics())
	if err := s.peer.AttachDiskCache(t.TempDir(), diskBytes, segBytes); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.peer.CloseDiskCache)
	s.peer.SignUp("prov", s.origin.URL)
	s.peerSrv = httptest.NewServer(s.peer.Handler())
	t.Cleanup(s.peerSrv.Close)
	return s
}

func (s *tieredSite) get(t *testing.T, path string) []byte {
	t.Helper()
	resp, err := s.peerSrv.Client().Get(s.peerSrv.URL + "/proxy/prov" + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestTieredSpillAndPromote drives a working set several times the memory
// budget through the peer: early objects must spill to disk on eviction,
// and a request for a spilled object must be served from the disk tier
// (hash-verified promotion), not by refetching the origin.
func TestTieredSpillAndPromote(t *testing.T) {
	objects := make(map[string][]byte)
	for i := 0; i < 32; i++ {
		objects[fmt.Sprintf("/o/%02d", i)] = obj(i, 8<<10)
	}
	// 64 KiB of memory across 16 shards vs a 256 KiB working set.
	s := newTieredSite(t, 64<<10, 8<<20, 64<<10, objects)

	for i := 0; i < 32; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if got := s.get(t, path); !bytes.Equal(got, objects[path]) {
			t.Fatalf("%s: wrong bytes on fill", path)
		}
	}
	entries, _, _ := s.peer.DiskCacheStats()
	if entries == 0 {
		t.Fatal("nothing spilled to the disk tier")
	}
	coldFetches := s.fetches.Load()

	// Sweep the whole working set again: everything is cached in one tier
	// or the other, so the origin must see zero new fetches.
	for i := 0; i < 32; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if got := s.get(t, path); !bytes.Equal(got, objects[path]) {
			t.Fatalf("%s: wrong bytes on warm sweep", path)
		}
	}
	if got := s.fetches.Load(); got != coldFetches {
		t.Fatalf("origin refetched on warm sweep: %d -> %d (disk tier not serving)", coldFetches, got)
	}
	mem, disk, _ := s.peer.TierStats()
	if disk == 0 {
		t.Fatalf("no disk-tier hits (mem=%d disk=%d)", mem, disk)
	}
}

// TestTieredLargeObjectStreams: an object too big for any memory shard must
// be cached on disk and served (zero-copy path) without an origin refetch,
// including Range requests.
func TestTieredLargeObjectStreams(t *testing.T) {
	big := obj(42, 300<<10) // 300 KiB vs 4 KiB memory shards
	objects := map[string][]byte{"/big": big}
	s := newTieredSite(t, 64<<10, 8<<20, 1<<20, objects)

	if got := s.get(t, "/big"); !bytes.Equal(got, big) {
		t.Fatal("first fetch of large object corrupted")
	}
	if entries, _, _ := s.peer.DiskCacheStats(); entries != 1 {
		t.Fatal("large object not cached on disk")
	}
	if got := s.get(t, "/big"); !bytes.Equal(got, big) {
		t.Fatal("disk-streamed large object corrupted")
	}
	if got := s.fetches.Load(); got != 1 {
		t.Fatalf("origin fetched %d times, want 1 (second serve from disk)", got)
	}
	_, disk, _ := s.peer.TierStats()
	if disk == 0 {
		t.Fatal("large-object serve not counted as a disk hit")
	}

	// Range request over the zero-copy path.
	req, _ := http.NewRequest(http.MethodGet, s.peerSrv.URL+"/proxy/prov/big", nil)
	req.Header.Set("Range", "bytes=1000-1999")
	resp, err := s.peerSrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range status = %d, want 206", resp.StatusCode)
	}
	part, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(part, big[1000:2000]) {
		t.Fatal("range over disk stream returned wrong bytes")
	}
}

// TestTieredCorruptDiskRefetch flips bits in the segment files, then asks
// for the spilled objects again: the peer must detect the mismatch on
// promotion, quarantine the entry, and refetch clean bytes from the origin
// — corrupt disk bytes are never served.
func TestTieredCorruptDiskRefetch(t *testing.T) {
	objects := make(map[string][]byte)
	for i := 0; i < 16; i++ {
		objects[fmt.Sprintf("/o/%02d", i)] = obj(i, 8<<10)
	}
	s := newTieredSite(t, 32<<10, 8<<20, 1<<20, objects)
	for i := 0; i < 16; i++ {
		s.get(t, fmt.Sprintf("/o/%02d", i))
	}
	st := s.peer.store.Load()
	entries, _, _ := s.peer.DiskCacheStats()
	if entries == 0 {
		t.Fatal("nothing on disk to corrupt")
	}
	// Flip a byte in every live entry.
	st.mu.Lock()
	for _, e := range st.index {
		seg := st.segments[e.seg]
		var b [1]byte
		seg.f.ReadAt(b[:], e.off)
		b[0] ^= 0x80
		seg.f.WriteAt(b[:], e.off)
	}
	st.mu.Unlock()

	for i := 0; i < 16; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		if got := s.get(t, path); !bytes.Equal(got, objects[path]) {
			t.Fatalf("%s: served corrupt bytes", path)
		}
	}
	if q := st.quarantined.Load(); q == 0 {
		t.Fatal("no entries quarantined despite corruption")
	}
}

// TestTieredPropertyEveryByteMatches is the eviction/promotion property
// test: a randomized mix of requests over a working set much larger than
// memory — every response must byte-match the origin's truth regardless of
// which tier served it, and the peer's own tier accounting must cover every
// request.
func TestTieredPropertyEveryByteMatches(t *testing.T) {
	rng := sim.NewRNG(7)
	objects := make(map[string][]byte)
	paths := make([]string, 0, 48)
	for i := 0; i < 48; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		size := 1<<10 + int(rng.Intn(12<<10))
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		objects[path] = data
		paths = append(paths, path)
	}
	s := newTieredSite(t, 48<<10, 8<<20, 32<<10, objects)

	const requests = 600
	for i := 0; i < requests; i++ {
		path := paths[rng.Intn(len(paths))]
		want := objects[path]
		got := s.get(t, path)
		if !bytes.Equal(got, want) {
			sum := sha256.Sum256(got)
			t.Fatalf("request %d for %s: served bytes (sha %x…) differ from origin truth", i, path, sum[:6])
		}
	}
	mem, disk, miss := s.peer.TierStats()
	if mem+disk+miss != requests {
		t.Fatalf("tier accounting %d+%d+%d != %d requests", mem, disk, miss, requests)
	}
	if disk == 0 {
		t.Fatal("property run never exercised the disk tier")
	}
	t.Logf("tiers: mem=%d disk=%d origin=%d (working set %d KiB vs 48 KiB memory)",
		mem, disk, miss, 48*7)
}

// TestTieredHammer is the -race workout: concurrent readers over a
// disk-spilling working set, mixed with segment scrubs, at-rest corruption,
// stats polls, and rotation — every served byte still matching the origin.
func TestTieredHammer(t *testing.T) {
	objects := make(map[string][]byte)
	paths := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		objects[path] = obj(i, 4<<10)
		paths = append(paths, path)
	}
	s := newTieredSite(t, 32<<10, 1<<20, 16<<10, objects)

	const workers, iters = 8, 60
	var wg sync.WaitGroup
	errs := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w + 1))
			for i := 0; i < iters; i++ {
				path := paths[rng.Intn(len(paths))]
				resp, err := s.peerSrv.Client().Get(s.peerSrv.URL + "/proxy/prov" + path)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(body, objects[path]) {
					errs <- fmt.Errorf("hammer: %s served wrong bytes", path)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // scrubber racing the serving path
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.peer.ScrubCache()
		}
	}()
	wg.Add(1)
	go func() { // stats/gauges racing everything
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.peer.DiskCacheStats()
			s.peer.TierStats()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mem, disk, miss := s.peer.TierStats()
	if mem+disk+miss != workers*iters {
		t.Fatalf("tier accounting %d+%d+%d != %d", mem, disk, miss, workers*iters)
	}
}

// TestTieredMemoryOnlyUnchanged: without AttachDiskCache the peer behaves
// exactly as the seed did — evictions are gone for good and refetch from
// the origin.
func TestTieredMemoryOnlyUnchanged(t *testing.T) {
	objects := map[string][]byte{
		"/a": obj(1, 8<<10),
		"/b": obj(2, 8<<10),
	}
	var fetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		w.Write(objects[strings.TrimPrefix(r.URL.Path, "/content")])
	}))
	defer origin.Close()
	p := NewPeer("memonly", 1<<20)
	p.SignUp("prov", origin.URL)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	for _, path := range []string{"/a", "/b", "/a"} {
		resp, err := srv.Client().Get(srv.URL + "/proxy/prov" + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := fetches.Load(); got != 2 {
		t.Fatalf("origin fetches = %d, want 2", got)
	}
	if entries, bytes_, segs := p.DiskCacheStats(); entries != 0 || bytes_ != 0 || segs != 0 {
		t.Fatal("memory-only peer reports a disk tier")
	}
	if checked, _ := p.ScrubCache(); checked != 0 {
		t.Fatal("memory-only ScrubCache checked entries")
	}
}
