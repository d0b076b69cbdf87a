package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// This file derives every input a workload feeds the program from the
// seed: the content catalog and its bytes, the page layouts, the view
// sequence, the republish sequence and the settlement batch sequence.
// Nothing here touches the program; the same seed always yields the same
// inputs, and each sequence draws from its own stream so lengthening one
// never shifts another.

// Stream tags: one independent PCG stream per input sequence.
const (
	streamCatalog uint64 = iota + 1
	streamPages
	streamViews
	streamBatches
	streamWrapperClients
	streamAudit
)

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15))
}

// spec sizes one workload's inputs and the part of the program they drive.
type spec struct {
	name string
	// Content catalog: pages containers plus shared objects, sizes drawn
	// log-uniformly in [minSize, maxSize].
	pages, shared       int
	minSize, maxSize    int
	minEmbed, maxEmbed  int
	clients             int     // Zipf client population for pooled wrappers
	anonShare           float64 // share of views without a ClientID
	peers               int     // live peers (view workloads) or fleet size
	peerCacheBytes      int     // memory tier per peer
	diskTier            bool    // attach a disk tier and record spool per peer
	viewRate            float64 // open-loop page views per second
	publishRate         float64 // republishes per second
	flushEvery          float64 // seconds between flush sweeps
	batchesPerSecond    int     // settle-fleet batches per requested second (a fixed count)
	batchBlock          int     // batches per block of fixed sizes; runs are whole blocks
	wrapperGetsPerBatch int     // wrapper GETs beside each batch (settle-fleet)
	tickEvery           int     // batches between epoch ticks (settle-fleet)
	recoverCut          int     // batches journaled before the recovery cut
	keyObjectBytes      int     // object each fleet key is issued for
	maxRecordBytes      int64   // record byte claims are uniform in [1, max]
	meanRecordsPerBatch float64 // geometric batch sizes, capped at 256
	maxRecordsPerBatch  int
	settle              bool // settle-fleet: control plane only, no data plane
	setupReps           int  // set-ups per run; the median is reported
}

var specs = map[string]spec{
	"view-warm": {
		name: "view-warm", pages: 64, shared: 448,
		minSize: 1 << 10, maxSize: 64 << 10, minEmbed: 4, maxEmbed: 16,
		clients: 1024, anonShare: 0.5, peers: 8, peerCacheBytes: 64 << 20,
		viewRate: 40, flushEvery: 0.25,
		setupReps: 5,
	},
	"view-churn": {
		name: "view-churn", pages: 16, shared: 48,
		minSize: 16 << 10, maxSize: 2 << 20, minEmbed: 2, maxEmbed: 6,
		clients: 1024, anonShare: 0.5, peers: 8, peerCacheBytes: 5 << 19,
		diskTier: true, viewRate: 25, publishRate: 5, flushEvery: 0.25,
		setupReps: 5,
	},
	"settle-fleet": {
		name: "settle-fleet", pages: 1, shared: 15,
		minSize: 1 << 10, maxSize: 64 << 10, minEmbed: 15, maxEmbed: 15,
		clients: 1024, peers: 10000, settle: true,
		batchesPerSecond: 128, batchBlock: 256, wrapperGetsPerBatch: 4, tickEvery: 256,
		recoverCut: 512, keyObjectBytes: 256 << 10, maxRecordBytes: 512,
		meanRecordsPerBatch: 16, maxRecordsPerBatch: 256,
		setupReps: 5,
	},
}

// object is one catalog entry.
type object struct {
	Path string
	Size int
}

// page is one page layout: a container and its embedded objects, as
// catalog indices.
type page struct {
	Name      string
	Container int
	Embedded  []int
}

// viewInput is one page view: which page, and which client identity asks
// for it ("" takes the anonymous wrapper path).
type viewInput struct {
	Page   int
	Client string
}

// publishInput republishes one catalog object at a new version with the
// same size.
type publishInput struct {
	Object  int
	Version int
}

// batchInput is one settlement batch: the submitting peer (fleet index)
// and the byte claim of each record.
type batchInput struct {
	Peer    int
	Records []int64
}

var extensions = []string{".js", ".css", ".png", ".jpg", ".woff2", ".svg"}

// golden is the golden ratio's fractional part: its multiples, mod 1,
// spread evenly over [0, 1).
const golden = 0.6180339887498949

// sizeAt is the size at quantile q of the log-uniform [minSize, maxSize].
func sizeAt(sp spec, q float64) int {
	lo, hi := math.Log(float64(sp.minSize)), math.Log(float64(sp.maxSize))
	return int(math.Exp(lo + q*(hi-lo)))
}

// sharedByRank maps size rank (smallest first) to the catalog index of the
// shared object holding that size; which object holds which rank is the
// seed's choice.
func sharedByRank(sp spec, seed uint64) []int {
	byRank := make([]int, sp.shared)
	for j, rank := range newRNG(seed, streamCatalog).Perm(sp.shared) {
		byRank[rank] = sp.pages + j
	}
	return byRank
}

// genCatalog returns the catalog: sp.pages containers, then sp.shared
// embeddable objects. Sizes are log-uniform in [minSize, maxSize] at fixed
// quantiles — shared objects evenly spaced, the container of the i-th most
// popular page at the i-th point of a golden-ratio sequence that starts at
// the median — so every seed's catalog has the same sizes. The seed decides
// which shared object holds which size, and every object's bytes.
func genCatalog(sp spec, seed uint64) []object {
	out := make([]object, sp.pages+sp.shared)
	for i := 0; i < sp.pages; i++ {
		q := math.Mod(0.5+float64(i)*golden, 1)
		out[i] = object{Path: fmt.Sprintf("/p%03d/index.html", i), Size: sizeAt(sp, q)}
	}
	for rank, idx := range sharedByRank(sp, seed) {
		j := idx - sp.pages
		out[idx] = object{
			Path: fmt.Sprintf("/o/%04d%s", j, extensions[j%len(extensions)]),
			Size: sizeAt(sp, (float64(rank)+0.5)/float64(sp.shared)),
		}
	}
	return out
}

// objectBytes returns the content of catalog object idx at version v:
// pseudo-random bytes determined by (seed, idx, v) alone.
func objectBytes(seed uint64, idx, version, size int) []byte {
	r := rand.New(rand.NewPCG(seed^uint64(idx)<<20, uint64(version)+0x51ed270b))
	b := make([]byte, size+7)
	for i := 0; i < size; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	return b[:size:size]
}

// embedOffsets spreads page sizes around the middle of [minEmbed,
// maxEmbed] in popularity order: the most popular page is mid-sized and
// larger and smaller pages alternate down the ranks.
var embedOffsets = []int{0, -3, 3, -6, 6, -1, 1, -4, 4, -2, 2, -5, 5}

// genPages lays out sp.pages pages, page i being the i-th most popular:
// its own container plus k embedded shared objects, one from each of k
// equal slices of the size ranks, at a golden-ratio position in the slice
// that differs from page to page. Page weights are thus the same for every
// seed — the popular pages' weight dominates every per-view figure — while
// the seed decides which objects they are and in what order they embed.
func genPages(sp spec, seed uint64) []page {
	r := newRNG(seed, streamPages)
	byRank := sharedByRank(sp, seed)
	mid, half := (sp.minEmbed+sp.maxEmbed)/2, (sp.maxEmbed-sp.minEmbed)/2
	out := make([]page, sp.pages)
	for i := range out {
		k := mid + embedOffsets[i%len(embedOffsets)]*half/6
		k = max(sp.minEmbed, min(sp.maxEmbed, k))
		emb := make([]int, k)
		for j := range emb {
			lo, hi := j*sp.shared/k, (j+1)*sp.shared/k
			q := math.Mod(float64(i+1)*golden+float64(j)*(1-golden), 1)
			emb[j] = byRank[lo+int(q*float64(hi-lo))]
		}
		r.Shuffle(k, func(a, b int) { emb[a], emb[b] = emb[b], emb[a] })
		out[i] = page{Name: fmt.Sprintf("p%03d", i), Container: i, Embedded: emb}
	}
	return out
}

// clientName names member c of the client population.
func clientName(c uint64) string { return fmt.Sprintf("client-%04d", c) }

// genViews returns n page views. Page popularity is Zipf (exponent 1.1):
// each page is viewed its expected number of times, rounded by largest
// remainder, and exactly an anonShare of the views carry no ClientID, so
// every seed's run does the same mix of work. The seed decides the order
// of the views, which of them are anonymous, and the Zipf-drawn client
// identity of the others.
func genViews(sp spec, seed uint64, n int) []viewInput {
	r := newRNG(seed, streamViews)
	weights := make([]float64, sp.pages)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.1)
	}
	out := make([]viewInput, 0, n)
	for pg, k := range apportion(weights, n) {
		for ; k > 0; k-- {
			out = append(out, viewInput{Page: pg})
		}
	}
	r.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	clients := rand.NewZipf(r, 1.1, 1, uint64(sp.clients-1))
	anon := int(math.Round(sp.anonShare * float64(n)))
	for _, i := range r.Perm(n)[anon:] {
		out[i].Client = clientName(clients.Uint64())
	}
	return out
}

// apportion splits n into integer shares proportional to weights by
// largest remainder (ties to the lower index).
func apportion(weights []float64, n int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rest := make([]int, len(weights))
	left := n
	for i, w := range weights {
		counts[i] = int(w / total * float64(n))
		left -= counts[i]
		rest[i] = i
	}
	frac := func(i int) float64 { return weights[i]/total*float64(n) - float64(counts[i]) }
	sort.SliceStable(rest, func(a, b int) bool { return frac(rest[a]) > frac(rest[b]) })
	for _, i := range rest[:left] {
		counts[i]++
	}
	return counts
}

// genPublishes returns n republishes, each at the object's next version.
// The j-th republish targets the catalog slot at the j-th point of a
// golden-ratio sequence over the slots (containers by page, then shared
// objects by size rank), so every seed republishes the same sizes of the
// same pages at the same times; the seed decides which object holds a
// rank, and the new bytes.
func genPublishes(sp spec, seed uint64, n int) []publishInput {
	byRank := sharedByRank(sp, seed)
	slots := sp.pages + sp.shared
	version := make(map[int]int)
	out := make([]publishInput, n)
	for j := range out {
		slot := int(math.Mod(float64(j+1)*golden, 1) * float64(slots))
		obj := slot
		if slot >= sp.pages {
			obj = byRank[slot-sp.pages]
		}
		version[obj]++
		out[j] = publishInput{Object: obj, Version: version[obj]}
	}
	return out
}

// genBatches returns n settlement batches from peers drawn uniformly across
// the fleet. Sizes are geometric with the spec's mean, capped: each block
// of batchBlock batches holds the sizes at the block's evenly spaced
// quantiles, in an order the seed shuffles, so any whole number of blocks
// settles the same number of records whatever the seed. Each record
// claims a uniform [1, maxRecordBytes] bytes.
func genBatches(sp spec, seed uint64, n int) []batchInput {
	r := newRNG(seed, streamBatches)
	sizes := make([]int, sp.batchBlock)
	for j := range sizes {
		q := (float64(j) + 0.5) / float64(sp.batchBlock)
		sizes[j] = min(sp.maxRecordsPerBatch, 1+int(-math.Log(1-q)*(sp.meanRecordsPerBatch-1)))
	}
	out := make([]batchInput, n)
	for i := range out {
		if i%sp.batchBlock == 0 {
			r.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
		}
		recs := make([]int64, sizes[i%sp.batchBlock])
		for j := range recs {
			recs[j] = 1 + r.Int64N(sp.maxRecordBytes)
		}
		out[i] = batchInput{Peer: r.IntN(sp.peers), Records: recs}
	}
	return out
}

// settleBatches is how many batches a settle-fleet run of the given
// length settles: batchesPerSecond for each second, in whole blocks, and
// at least one block past the recovery cut. The count is fixed, not timed,
// so every run settles the same records and journals the same records.
func settleBatches(sp spec, seconds float64) int {
	n := int(math.Ceil(seconds*float64(sp.batchesPerSecond)/float64(sp.batchBlock))) * sp.batchBlock
	return max(n, sp.recoverCut+sp.batchBlock)
}

// genAuditClaims returns the byte claim of the one setup record per fleet
// peer that seeds the auditor's state.
func genAuditClaims(sp spec, seed uint64) []int64 {
	r := newRNG(seed, streamAudit)
	out := make([]int64, sp.peers)
	for i := range out {
		out[i] = 1 + r.Int64N(sp.maxRecordBytes)
	}
	return out
}

// genWrapperClients returns n Zipf-drawn client identities for the
// settle-fleet wrapper reader.
func genWrapperClients(sp spec, seed uint64, n int) []string {
	r := newRNG(seed, streamWrapperClients)
	z := rand.NewZipf(r, 1.1, 1, uint64(sp.clients-1))
	out := make([]string, n)
	for i := range out {
		out[i] = clientName(z.Uint64())
	}
	return out
}
