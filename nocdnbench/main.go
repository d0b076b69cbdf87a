// Command nocdnbench is the repository's benchmark: it drives the real
// NoCDN origin, peers and loader over loopback HTTP in one process and
// prints every metric by name and unit, ending with one JSON result line.
//
//	nocdnbench -root . -work .bench_build/work --workload view-warm --seed 1 --seconds 10 --trace 0
//
// Workloads: view-warm, view-churn, settle-fleet (see README.md). With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it replays
// the same inputs one root operation at a time and reports the per-layer
// metrics and the tracing overhead. Run it through run.sh, which builds it
// from the checkout first.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; the generator test keeps the two in step.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"origin_kb_per_op", "KB", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"loader.self_ms", "ms", "lower"},
	{"loader.conns_per_view", "count", "lower"},
	{"loader.requests_per_view", "count", "lower"},
	{"loader.retries_per_kview", "count", "lower"},
	{"loader.fallbacks_per_kview", "count", "lower"},
	{"wrapper.serve_p50_ms", "ms", "lower"},
	{"wrapper.serve_p99_ms", "ms", "lower"},
	{"wrapper.self_ms", "ms", "lower"},
	{"wrapper.builds_per_kview", "count", "lower"},
	{"wrapper.kb_per_view", "KB", "lower"},
	{"wrapper.epoch_tick_ms", "ms", "lower"},
	{"peer.serve_p50_ms", "ms", "lower"},
	{"peer.serve_p99_ms", "ms", "lower"},
	{"peer.self_ms", "ms", "lower"},
	{"peer.hit_mem_p50_ms", "ms", "lower"},
	{"peer.hit_ratio_mem", "ratio", "higher"},
	{"peer.hit_ratio_disk", "ratio", "higher"},
	{"peer.miss_ratio", "ratio", "lower"},
	{"peer.miss_p50_ms", "ms", "lower"},
	{"peer.revalidations_per_kview", "count", "lower"},
	{"origin_content.self_ms", "ms", "lower"},
	{"segstore.hit_disk_p50_ms", "ms", "lower"},
	{"record.deliver_p50_ms", "ms", "lower"},
	{"record.self_ms", "ms", "lower"},
	{"record.pending_peak", "count", "lower"},
	{"record.rejected", "count", "lower"},
	{"flush.p50_ms", "ms", "lower"},
	{"flush.p99_ms", "ms", "lower"},
	{"flush.self_ms", "ms", "lower"},
	{"settle.handler_p50_ms", "ms", "lower"},
	{"settle.handler_p99_ms", "ms", "lower"},
	{"settle.self_ms", "ms", "lower"},
	{"settle.records_per_batch", "count", "higher"},
	{"settle.sampled_leaves_per_batch", "count", "lower"},
	{"settle.rejects", "count", "lower"},
	{"client.self_ms", "ms", "lower"},
	{"audit.peers", "count", "lower"},
	{"wal.append_p99_ms", "ms", "lower"},
	{"wal.fsyncs_per_batch", "count", "lower"},
	{"wal.records_per_fsync", "count", "higher"},
	{"wal.bytes_per_record", "B", "lower"},
	{"wal.snapshot_p50_ms", "ms", "lower"},
	{"recover.records_replayed", "count", "lower"},
	{"recover.records_per_s", "rec/s", "higher"},
	{"recover.cpu_ms", "ms", "lower"},
	{"trace.op_p50_ms", "ms", "lower"},
	{"trace.untraced_op_p50_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("undeclared metric " + name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func (r *result) set(name string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }

// fail records a correctness problem; an empty description is no problem.
func (r *result) fail(problem string) {
	if problem != "" {
		r.Correct = false
		r.problems = append(r.problems, problem)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nocdnbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nocdnbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "view-warm, view-churn or settle-fleet")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	root := fs.String("root", ".", "repository checkout (environment header)")
	work := fs.String("work", "", "scratch directory for WALs, disk tiers and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, ok := specs[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *work == "" {
		return fmt.Errorf("want --seconds > 0, --trace 0|1 and -work")
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", sp.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	env := environment(*root, dir)
	hdr, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", hdr)

	var res *result
	var err error
	switch {
	case *trace == 1:
		spans := filepath.Join(*work, "spans")
		if err := os.MkdirAll(spans, 0o755); err != nil {
			return err
		}
		res, err = runTraced(sp, *seed, *seconds, dir, filepath.Join(spans, fmt.Sprintf("%s-seed%d.jsonl", sp.name, *seed)), out)
	case sp.settle:
		res, err = runSettle(sp, *seed, *seconds, dir, out)
	default:
		res, err = runViews(sp, *seed, *seconds, dir, out)
	}
	if err != nil {
		return err
	}
	for _, p := range res.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	printMetrics(out, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// environment is the header every result carries: where and on what the
// numbers were measured.
func environment(root, walDir string) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"host":       host,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(root),
		"source":     sourceDigest(root),
		"wal_fs":     fsType(walDir),
		"fsync":      "always",
		"network":    "loopback",
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or "none" when the checkout is not
// a git work tree of its own (the source digest still identifies the
// code); git is not asked, as it would look in the parent directories.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every Go file and go.mod under the program's tree
// (internal/ and cmd/), so results identify the code even without git.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	for _, sub := range []string{"go.mod", "internal", "cmd"} {
		filepath.Walk(filepath.Join(root, sub), func(p string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir (the WAL's).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
