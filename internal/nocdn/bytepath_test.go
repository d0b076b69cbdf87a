package nocdn

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"hpop/internal/sim"
)

// TestReadBody pins readBody's contract for every relation between the
// expected size and the body: at most size+1 bytes, short bodies short,
// unknown sizes read whole, read errors passed through.
func TestReadBody(t *testing.T) {
	body := []byte("0123456789")
	cases := []struct {
		name string
		size int64
		want string
	}{
		{"exact", 10, "0123456789"},
		{"unknown size", -1, "0123456789"},
		{"body longer", 4, "01234"},
		{"body shorter", 16, "0123456789"},
		{"empty expected", 0, "0"},
	}
	for _, c := range cases {
		// One-byte reads exercise the fill loop; data-with-EOF reads the
		// last bytes and EOF in one call.
		for _, r := range []io.Reader{
			bytes.NewReader(body),
			iotest.OneByteReader(bytes.NewReader(body)),
			iotest.DataErrReader(bytes.NewReader(body)),
		} {
			got, err := readBody(r, c.size)
			if err != nil || string(got) != c.want {
				t.Errorf("%s: readBody = %q, %v; want %q", c.name, got, err, c.want)
			}
		}
	}
	got, err := readBody(strings.NewReader(""), 0)
	if err != nil || got == nil || len(got) != 0 {
		t.Errorf("empty body: readBody = %#v, %v; want empty non-nil slice", got, err)
	}
	big := obj(3, 200<<10)
	if got, err := readBody(bytes.NewReader(big), int64(len(big))); err != nil || !bytes.Equal(got, big) || cap(got) != len(big) {
		t.Errorf("sized read: %d bytes (cap %d), %v; want one exact-size slice", len(got), cap(got), err)
	}
	boom := errors.New("connection reset")
	for _, size := range []int64{-1, 2, 10} {
		if _, err := readBody(io.MultiReader(strings.NewReader("01"), iotest.ErrReader(boom)), size); !errors.Is(err, boom) {
			t.Errorf("size %d: readBody error = %v, want %v", size, err, boom)
		}
	}
}

// TestLoaderBoundsHostilePeerBody: a peer that answers a 4 KB object with
// an endless stream must cost the loader at most the declared size plus one
// byte of buffer, and the page must still render the origin's verified
// bytes through the tampered-object fallback.
func TestLoaderBoundsHostilePeerBody(t *testing.T) {
	want := bytes.Repeat([]byte("verified"), 512) // 4 KB
	o := NewOrigin("example.com", WithRNG(sim.NewRNG(7)))
	o.AddObject("/index.html", want)
	if err := o.AddPage(Page{Name: "home", Container: "/index.html"}); err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(o.Handler())
	defer originSrv.Close()
	const streamed = 64 << 20
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := bytes.Repeat([]byte{'x'}, 32<<10)
		for sent := 0; sent < streamed; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return // the loader hung up, as it should
			}
		}
	}))
	defer hostile.Close()
	o.RegisterPeer("hostile", hostile.URL, 10)

	l := &Loader{OriginURL: originSrv.URL}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := l.LoadPage("home")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body["/index.html"], want) {
		t.Fatal("page did not render the origin's bytes")
	}
	if !res.TamperDetected || len(res.FallbackObjects) != 1 {
		t.Fatalf("tampered=%v fallbacks=%v, want an oversized body classified tampered", res.TamperDetected, res.FallbackObjects)
	}
	if n := res.PeerBytes["hostile"]; n != 0 {
		t.Fatalf("hostile peer credited %d bytes", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("loader allocated %d bytes against a %d-byte stream for a %d-byte object", alloc, streamed, len(want))
	}
}

// TestLoaderBoundsHostileRecordReply: a peer that acknowledges a usage
// record with a 202 announcing an absurd Content-Length must not make the
// loader size a buffer by that figure; the page view completes and the
// record counts as delivered.
func TestLoaderBoundsHostileRecordReply(t *testing.T) {
	s := newBytePathSite(t)
	inner := s.peer.Handler()
	var acks atomic.Int64
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/record" {
			inner.ServeHTTP(w, r)
			return
		}
		acks.Add(1)
		w.Header().Set("Content-Length", strconv.FormatInt(1<<62, 10))
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte("ack"))
	}))
	defer hostile.Close()
	s.origin.RegisterPeer("p", hostile.URL, 10)

	l := &Loader{OriginURL: s.originSrv.URL}
	res, err := l.LoadPage("home")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Body["/big"], s.big) || res.TamperDetected {
		t.Fatalf("page not rendered from the peer (tampered=%v)", res.TamperDetected)
	}
	if res.RecordsDelivered != 1 || acks.Load() != 1 {
		t.Fatalf("records delivered %d, acks %d; want 1 and 1", res.RecordsDelivered, acks.Load())
	}
}

// bytePathSite is a real origin plus one disk-tiered peer over HTTP: a
// 16 KB object lives in the peer's memory tier, a 300 KB one (larger than a
// 64 KB memory shard) on its disk tier, served by the stream path.
type bytePathSite struct {
	origin    *Origin
	originSrv *httptest.Server
	peer      *Peer
	peerSrv   *httptest.Server
	small     []byte
	big       []byte
}

func newBytePathSite(t *testing.T) *bytePathSite {
	t.Helper()
	s := &bytePathSite{small: obj(1, 16<<10), big: obj(2, 300<<10)}
	s.origin = NewOrigin("prov", WithRNG(sim.NewRNG(7)))
	s.origin.AddObject("/small", s.small)
	s.origin.AddObject("/big", s.big)
	// Enough embedded objects that the wrapper JSON outgrows the server's
	// 2 KB pre-chunking buffer, which would set Content-Length by itself.
	embedded := []string{"/big"}
	for i := 0; i < 24; i++ {
		path := fmt.Sprintf("/pad/%02d", i)
		s.origin.AddObject(path, []byte(path))
		embedded = append(embedded, path)
	}
	if err := s.origin.AddPage(Page{Name: "home", Container: "/small", Embedded: embedded}); err != nil {
		t.Fatal(err)
	}
	s.originSrv = httptest.NewServer(s.origin.Handler())
	t.Cleanup(s.originSrv.Close)
	s.peer = NewPeer("p", 1<<20)
	if err := s.peer.AttachDiskCache(t.TempDir(), 8<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.peer.CloseDiskCache)
	s.peer.SignUp("prov", s.originSrv.URL)
	s.origin.RegisterPeer("p", "http://unused.invalid", 10)
	s.peerSrv = httptest.NewServer(s.peer.Handler())
	t.Cleanup(s.peerSrv.Close)
	return s
}

func (s *bytePathSite) get(t *testing.T, url, rng string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestObjectResponsesCarryContentLength: every object-path response — the
// origin's content and wrapper, the peer's memory tier and disk stream,
// whole or ranged — announces its exact length, never chunked framing.
func TestObjectResponsesCarryContentLength(t *testing.T) {
	s := newBytePathSite(t)
	peerURL := s.peerSrv.URL + "/proxy/prov"
	// Fill both peer tiers so the rows below are cache hits.
	s.get(t, peerURL+"/small", "")
	s.get(t, peerURL+"/big", "")
	cases := []struct {
		name, url, rng string
		want           []byte // nil: any body
	}{
		{"origin content", s.originSrv.URL + "/content/big", "", s.big},
		{"origin content range ignored", s.originSrv.URL + "/content/big", "bytes=0-99", s.big},
		{"origin wrapper", s.originSrv.URL + "/wrapper?page=home", "", nil},
		{"origin wrapper client", s.originSrv.URL + "/wrapper?page=home&client=c1", "bytes=0-9", nil},
		{"peer memory", peerURL + "/small", "", s.small},
		{"peer memory range", peerURL + "/small", "bytes=100-8291", s.small[100:8292]},
		{"peer disk stream", peerURL + "/big", "", s.big},
		{"peer disk stream range", peerURL + "/big", "bytes=5000-", s.big[5000:]},
	}
	for _, c := range cases {
		resp, body := s.get(t, c.url, c.rng)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
			t.Errorf("%s: status %d", c.name, resp.StatusCode)
			continue
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, transfer-encoding %v, body %d bytes", c.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if len(body) <= 2<<10 {
			t.Errorf("%s: %d-byte body fits the server's pre-chunking buffer; the row proves nothing", c.name, len(body))
		}
		if c.want != nil && !bytes.Equal(body, c.want) {
			t.Errorf("%s: wrong bytes", c.name)
		}
	}
	if mem, disk, _ := s.peer.TierStats(); mem != 2 || disk != 2 {
		t.Fatalf("tier hits mem=%d disk=%d, want 2 and 2", mem, disk)
	}
}

// sendfileRecorder is a ResponseWriter that, like net/http's, implements
// io.ReaderFrom; it records the reader the peer hands it.
type sendfileRecorder struct {
	*httptest.ResponseRecorder
	src io.Reader
}

func (r *sendfileRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.src = src
	return io.Copy(r.ResponseRecorder, src)
}

// TestDiskStreamSendsFromFile pins the sendfile shape of the disk-stream
// path: the response writer's ReadFrom must receive an *io.LimitedReader
// over an *os.File (the only source net.sendFile accepts), positioned on
// the requested bytes, for whole objects and every range form.
func TestDiskStreamSendsFromFile(t *testing.T) {
	s := newBytePathSite(t)
	s.get(t, s.peerSrv.URL+"/proxy/prov/big", "")
	n := len(s.big)
	cases := []struct {
		rng    string
		status int
		want   []byte
	}{
		{"", http.StatusOK, s.big},
		{"bytes=1000-1999", http.StatusPartialContent, s.big[1000:2000]},
		{"bytes=0-0", http.StatusPartialContent, s.big[:1]},
		{fmt.Sprintf("bytes=%d-", n-7), http.StatusPartialContent, s.big[n-7:]},
		{fmt.Sprintf("bytes=10-%d", n+500), http.StatusPartialContent, s.big[10:]},
		{fmt.Sprintf("bytes=%d-", n), http.StatusRequestedRangeNotSatisfiable, nil},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodGet, "/proxy/prov/big", nil)
		if c.rng != "" {
			req.Header.Set("Range", c.rng)
		}
		w := &sendfileRecorder{ResponseRecorder: httptest.NewRecorder()}
		s.peer.Handler().ServeHTTP(w, req)
		if w.Code != c.status {
			t.Errorf("range %q: status %d, want %d", c.rng, w.Code, c.status)
			continue
		}
		if c.want == nil {
			continue
		}
		lr, ok := w.src.(*io.LimitedReader)
		if !ok {
			t.Fatalf("range %q: ReadFrom got %T, want *io.LimitedReader", c.rng, w.src)
		}
		if _, ok := lr.R.(*os.File); !ok {
			t.Fatalf("range %q: limited reader over %T, want *os.File", c.rng, lr.R)
		}
		if !bytes.Equal(w.Body.Bytes(), c.want) {
			t.Errorf("range %q: wrong bytes", c.rng)
		}
		if got := w.Header().Get("Content-Length"); got != fmt.Sprint(len(c.want)) {
			t.Errorf("range %q: Content-Length %q, want %d", c.rng, got, len(c.want))
		}
		if c.status == http.StatusPartialContent && !strings.HasPrefix(w.Header().Get("Content-Range"), "bytes ") {
			t.Errorf("range %q: Content-Range %q", c.rng, w.Header().Get("Content-Range"))
		}
	}
	if got := s.peer.OriginFetches(); got != 1 {
		t.Fatalf("origin fetched %d times, want 1 (every stream from disk)", got)
	}
}

// TestDiskStreamSegmentLost: the segment file holding a disk-stream entry
// disappears (removed outside the store) after the index resolved the
// entry. The serve must degrade to an origin backfill with the right
// bytes, and the store must forget the lost segment: one more origin fetch
// in all, however many serves follow.
func TestDiskStreamSegmentLost(t *testing.T) {
	s := newBytePathSite(t)
	url := s.peerSrv.URL + "/proxy/prov/big"
	s.get(t, url, "")
	st := s.peer.store.Load()
	_, seg, ok := st.get("prov|/big")
	if !ok {
		t.Fatal("large object not on the disk tier")
	}
	seg.release()
	if err := os.Remove(seg.path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		resp, body := s.get(t, url, "")
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, s.big) {
			t.Fatalf("serve %d: status %d, %d bytes: lost entry not backfilled correctly", i, resp.StatusCode, len(body))
		}
	}
	resp, body := s.get(t, url, "bytes=10-19")
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, s.big[10:20]) {
		t.Fatalf("range after loss: status %d, %q", resp.StatusCode, body)
	}
	if got := s.peer.OriginFetches(); got != 2 {
		t.Fatalf("origin fetched %d times, want 2 (fill + one backfill)", got)
	}
	if _, disk, _ := s.peer.TierStats(); disk < 5 {
		t.Fatalf("%d disk-stream serves, want the refilled entry streamed from disk again", disk)
	}
}

// TestDiskStreamReclaimRace streams disk-tier entries from several
// goroutines while a disk budget of a few segments forces constant
// reclamation, so segments are unlinked under open descriptors and entries
// vanish between the serve decision and the stream: every response must
// still carry the origin's exact bytes.
func TestDiskStreamReclaimRace(t *testing.T) {
	objects := make(map[string][]byte)
	paths := make([]string, 0, 48)
	for i := 0; i < 48; i++ {
		path := fmt.Sprintf("/o/%02d", i)
		objects[path] = obj(i, 6<<10)
		paths = append(paths, path)
	}
	// 2 KB memory shards: every object streams from disk. 96 KB of disk in
	// 24 KB segments holds about a third of the working set.
	s := newTieredSite(t, 32<<10, 96<<10, 24<<10, objects)
	const workers, iters = 6, 80
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w + 1))
			for i := 0; i < iters; i++ {
				path := paths[rng.Intn(len(paths))]
				resp, err := s.peerSrv.Client().Get(s.peerSrv.URL + "/proxy/prov" + path)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, objects[path]) {
					t.Errorf("%s: status %d, %d bytes, %v: wrong bytes under reclamation", path, resp.StatusCode, len(body), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, disk, _ := s.peer.TierStats(); disk == 0 {
		t.Fatal("no disk-stream serves")
	}
	if m := s.peer.metrics.Counter("nocdn.cache.segments_reclaimed"); m == 0 {
		t.Fatal("no segment was reclaimed; the race was never run")
	}
}
