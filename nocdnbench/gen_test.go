package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// inputs is every sequence a workload's seed determines.
type inputs struct {
	Catalog   []object
	Pages     []page
	Views     []viewInput
	Publishes []publishInput
	Batches   []batchInput
	Audit     []int64
	Readers   []string
	Bytes     [][]byte
}

func generate(sp spec, seed uint64) inputs {
	in := inputs{
		Catalog:   genCatalog(sp, seed),
		Pages:     genPages(sp, seed),
		Views:     genViews(sp, seed, 2000),
		Publishes: genPublishes(sp, seed, 100),
	}
	if sp.settle {
		in.Batches = genBatches(sp, seed, 200)
		in.Audit = genAuditClaims(sp, seed)
		in.Readers = genWrapperClients(sp, seed, 200)
	}
	for i, obj := range in.Catalog[:8] {
		in.Bytes = append(in.Bytes, objectBytes(seed, i, 1, obj.Size))
	}
	return in
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, sp := range specs {
		a, b := generate(sp, 7), generate(sp, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	for name, sp := range specs {
		a, b := generate(sp, 7), generate(sp, 8)
		if reflect.DeepEqual(a.Catalog, b.Catalog) || reflect.DeepEqual(a.Bytes, b.Bytes) {
			t.Errorf("%s: seeds 7 and 8 generated the same catalog", name)
		}
		if reflect.DeepEqual(a.Views, b.Views) {
			t.Errorf("%s: seeds 7 and 8 generated the same view sequence", name)
		}
		if reflect.DeepEqual(a.Publishes, b.Publishes) {
			t.Errorf("%s: seeds 7 and 8 generated the same publish sequence", name)
		}
		if sp.settle && (reflect.DeepEqual(a.Batches, b.Batches) || reflect.DeepEqual(a.Readers, b.Readers)) {
			t.Errorf("%s: seeds 7 and 8 generated the same batch or reader sequence", name)
		}
	}
}

func TestInputsWithinSpec(t *testing.T) {
	for name, sp := range specs {
		in := generate(sp, 3)
		for _, obj := range in.Catalog {
			if obj.Size < sp.minSize || obj.Size > sp.maxSize {
				t.Errorf("%s: object %s size %d outside [%d, %d]", name, obj.Path, obj.Size, sp.minSize, sp.maxSize)
			}
		}
		for _, pg := range in.Pages {
			if len(pg.Embedded) < sp.minEmbed || len(pg.Embedded) > sp.maxEmbed {
				t.Errorf("%s: page %s embeds %d objects", name, pg.Name, len(pg.Embedded))
			}
			seen := map[int]bool{pg.Container: true}
			for _, e := range pg.Embedded {
				if e < sp.pages || seen[e] {
					t.Errorf("%s: page %s embeds %d twice or a container", name, pg.Name, e)
				}
				seen[e] = true
			}
		}
		for _, b := range in.Batches {
			if len(b.Records) < 1 || len(b.Records) > sp.maxRecordsPerBatch || b.Peer >= sp.peers {
				t.Errorf("%s: batch of %d records from peer %d", name, len(b.Records), b.Peer)
			}
		}
	}
}

// TestSeedKeepsWorkloadShape checks what lets runs with different seeds be
// compared: every seed views each page equally often, with the same number
// of anonymous views, and settles the same number of records in every
// block of batches.
func TestSeedKeepsWorkloadShape(t *testing.T) {
	shape := func(sp spec, seed uint64) (pages []int, anon int, blockRecords []int) {
		pages = make([]int, sp.pages)
		for _, v := range genViews(sp, seed, 1000) {
			pages[v.Page]++
			if v.Client == "" {
				anon++
			}
		}
		if sp.settle {
			for i, b := range genBatches(sp, seed, 4*sp.batchBlock) {
				if i%sp.batchBlock == 0 {
					blockRecords = append(blockRecords, 0)
				}
				blockRecords[len(blockRecords)-1] += len(b.Records)
			}
		}
		return pages, anon, blockRecords
	}
	for name, sp := range specs {
		p7, a7, b7 := shape(sp, 7)
		p8, a8, b8 := shape(sp, 8)
		if !reflect.DeepEqual(p7, p8) || a7 != a8 || !reflect.DeepEqual(b7, b8) {
			t.Errorf("%s: seeds 7 and 8 differ in shape: pages %v vs %v, anonymous %d vs %d, block records %v vs %v",
				name, p7, p8, a7, a8, b7, b8)
		}
		if a7 != int(sp.anonShare*1000+0.5) {
			t.Errorf("%s: %d anonymous views of 1000, want share %.2f", name, a7, sp.anonShare)
		}
		for i := 1; i < len(b7); i++ {
			if b7[i] != b7[0] {
				t.Errorf("%s: block records %v differ from block to block", name, b7)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the harness that runs the
// benchmark reads, in step with the workloads and metrics defined here.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for n := range specs {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark defines %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	rv := rootView{
		root: span{ID: 1, Root: 1, Name: "view", Start: 0, End: 10 * ms},
		children: map[string][]span{
			"origin wrapper": {{ID: 2, Parent: 1, Root: 1, Start: 0, End: 2 * ms}},
			"peer proxy":     {{ID: 3, Parent: 1, Root: 1, Start: 3 * ms, End: 7 * ms}, {ID: 4, Parent: 1, Root: 1, Start: 4 * ms, End: 6 * ms}},
			"origin content": {{ID: 5, Parent: 3, Root: 1, Start: 4 * ms, End: 5 * ms}},
		},
	}
	got := rv.selfTimes()
	want := map[string]time.Duration{
		"loader": 4 * time.Millisecond, "wrapper": 2 * time.Millisecond, "peer": 3 * time.Millisecond,
		"origin_content": time.Millisecond, "record": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
