// Command tpccbench is the repository's end-to-end benchmark: a closed
// loop of eight simulated TPC-C terminals committing through the WAL
// group-commit pipeline to an X-SSD fast side, on three workloads
// (tpcc-fastlog, tpcc-paged, tpcc-eager3). It builds the whole stack
// itself and measures every layer from outside: it times calls into
// public functions (the log's sink, the pager's page store, checkpoint
// and recovery entry points) and reads public counters. Run it from the
// repository root:
//
//	bash tpccbench/run.sh --workload tpcc-fastlog --seed 1 --seconds 30 --trace 0
//
// A run repeats one fixed window of virtual time, built and loaded from
// the seed, until --seconds of host time have passed. Virtual-time
// metrics must be bit-identical across the repetitions (on tpcc-eager3
// the repetitions alternate between 1 and nproc quantum workers); host
// metrics are the median over repetitions. Every repetition ends with the
// workload's correctness gate, a crash of the log device and a recovery.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics, from repetitions that alternate between untraced and traced
// (spans plus a CPU profile). Result files, Chrome trace-event spans and
// profiles go to .bench_out/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const outDir = ".bench_out"

// metricDef names one reported metric. Per-layer metrics also name the
// end-to-end metric they should move and the workloads they apply to.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

var endToEnd = []metricDef{
	{name: "commit_p50_us", unit: "us", better: "lower"},
	{name: "commit_p99_us", unit: "us", better: "lower"},
	{name: "txn_per_s", unit: "txn/s", better: "higher"},
	{name: "completed_frac", unit: "ratio", better: "higher"},
	{name: "write_amp", unit: "ratio", better: "lower"},
	{name: "recovery_ms", unit: "ms", better: "lower"},
	{name: "host_txn_per_s", unit: "txn/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "live_heap_mb", unit: "MB", better: "lower"},
}

// failedFrac is reported in every result file and table but is not an
// end-to-end metric of BENCHMARK.json, whose metrics must never read 0:
// completed_frac carries the same information.
var failedFrac = metricDef{name: "failed_frac", unit: "ratio", better: "lower"}

var perLayer = []metricDef{
	{"tpcc.retries_per_txn", "ratio", "lower", "completed_frac txn_per_s", "paged"},
	{"tpcc.abort_frac", "ratio", "lower", "completed_frac txn_per_s", "paged"},
	{"wal.flushes", "count", "lower", "commit_p50_us commit_p99_us", "all"},
	{"wal.batch_bytes_mean", "bytes", "higher", "commit_p50_us commit_p99_us", "all"},
	{"wal.sink_write_p50_us", "us", "lower", "commit_p50_us commit_p99_us", "fastlog eager3 paged"},
	{"wal.sink_write_p90_us", "us", "lower", "commit_p50_us commit_p99_us", "fastlog eager3 paged"},
	{"wal.sink_busy_frac", "ratio", "lower", "commit_p50_us commit_p99_us", "fastlog eager3 paged"},
	{"wal.group_wait_p50_us", "us", "lower", "commit_p50_us commit_p99_us", "fastlog eager3 paged"},
	{"cmb.bytes_in", "bytes", "higher", "commit_p99_us", "fastlog eager3"},
	{"cmb.overruns", "count", "lower", "commit_p99_us", "fastlog eager3"},
	{"cmb.live_bytes_max", "bytes", "lower", "commit_p99_us", "fastlog eager3"},
	{"destage.pages", "count", "lower", "write_amp", "all"},
	{"destage.partial_frac", "ratio", "lower", "write_amp", "all"},
	{"destage.filler_bytes", "bytes", "lower", "write_amp", "all"},
	{"transport.mirrored_bytes", "bytes", "higher", "commit_p50_us", "eager3"},
	{"transport.counter_updates", "count", "lower", "commit_p50_us", "eager3"},
	{"transport.repair_resends", "count", "lower", "commit_p50_us", "eager3"},
	{"transport.peer_lag_max_bytes", "bytes", "lower", "commit_p50_us", "eager3"},
	{"btree.hit_ratio", "ratio", "higher", "commit_p99_us txn_per_s host_txn_per_s", "paged"},
	{"btree.misses_per_txn", "ratio", "lower", "commit_p99_us txn_per_s host_txn_per_s", "paged"},
	{"btree.evictions", "count", "lower", "commit_p99_us txn_per_s host_txn_per_s", "paged"},
	{"btree.resident_pages_max", "count", "lower", "commit_p99_us txn_per_s host_txn_per_s", "paged"},
	{"pagestore.reads", "count", "lower", "commit_p99_us recovery_ms", "paged"},
	{"pagestore.read_p50_us", "us", "lower", "commit_p99_us recovery_ms", "paged"},
	{"pagestore.read_p99_us", "us", "lower", "commit_p99_us recovery_ms", "paged"},
	{"pagestore.write_batch_p50_us", "us", "lower", "commit_p99_us recovery_ms", "paged"},
	{"pagestore.sync_p50_us", "us", "lower", "commit_p99_us recovery_ms", "paged"},
	{"ckpt.completed", "count", "higher", "commit_p99_us write_amp recovery_ms", "paged"},
	{"ckpt.useful_frac", "ratio", "higher", "commit_p99_us write_amp recovery_ms", "paged"},
	{"ckpt.duration_p50_ms", "ms", "lower", "commit_p99_us write_amp recovery_ms", "paged"},
	{"ckpt.pages_per_ckpt", "count", "lower", "commit_p99_us write_amp recovery_ms", "paged"},
	{"ckpt.commit_p90_overlap_us", "us", "lower", "commit_p99_us", "paged"},
	{"ckpt.commit_p90_idle_us", "us", "lower", "commit_p99_us", "paged"},
	{"recovery.tail_records", "count", "lower", "recovery_ms", "paged"},
	{"recovery.tail_frac", "ratio", "lower", "recovery_ms", "paged"},
	{"recovery.page_reads", "count", "lower", "recovery_ms", "paged"},
	{"sched.conventional_wait_us", "us", "lower", "commit_p99_us recovery_ms", "paged"},
	{"sched.destage_wait_us", "us", "lower", "commit_p99_us recovery_ms", "all"},
	{"sched.gc_ops", "count", "lower", "commit_p99_us recovery_ms", "paged"},
	{"ftl.waf", "ratio", "lower", "write_amp recovery_ms", "paged"},
	{"ftl.gc_pages", "count", "lower", "write_amp recovery_ms", "paged"},
	{"ftl.free_blocks_min", "count", "higher", "write_amp recovery_ms", "paged"},
	{"nand.programs", "count", "lower", "write_amp recovery_ms", "all"},
	{"nand.reads", "count", "lower", "write_amp recovery_ms", "paged"},
	{"nand.erases", "count", "lower", "write_amp recovery_ms", "paged"},
	{"sim.events", "count", "lower", "host_txn_per_s", "all"},
	{"sim.events_per_host_s", "1/s", "higher", "host_txn_per_s", "all"},
	{"sim.allocs_per_event", "ratio", "lower", "host_txn_per_s", "all"},
	{"cpu.sim", "share", "lower", "host_txn_per_s", "fastlog eager3"},
	{"cpu.villars", "share", "lower", "host_txn_per_s", "all"},
	{"cpu.wal", "share", "lower", "host_txn_per_s", "all"},
	{"cpu.db", "share", "lower", "host_txn_per_s", "fastlog"},
	{"cpu.tpcc", "share", "lower", "host_txn_per_s", "fastlog"},
	{"cpu.btree", "share", "lower", "host_txn_per_s", "paged"},
	{"cpu.ntb", "share", "lower", "host_txn_per_s", "eager3"},
	{"cpu.obs", "share", "lower", "host_txn_per_s", "all"},
	{"cpu.runtime", "share", "lower", "host_txn_per_s", "all"},
	{"cpu.other", "share", "lower", "host_txn_per_s", "all"},
	{"trace.overhead_frac", "ratio", "lower", "host_txn_per_s", "all"},
}

// hostInfo is the host stanza recorded in every result file.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GCPercent  int    `json:"gc_percent"`
}

func host() hostInfo {
	gc := debug.SetGCPercent(100)
	debug.SetGCPercent(gc)
	h := hostInfo{NProc: runtime.NumCPU(), CPUModel: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GCPercent: gc}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// metricRecord is one metric in the result file.
type metricRecord struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Better  string  `json:"better"`
	Moves   string  `json:"moves,omitempty"`
	On      string  `json:"on,omitempty"`
}

// resultFile is what a run records under .bench_out/.
type resultFile struct {
	Host        hostInfo       `json:"host"`
	Workload    string         `json:"workload"`
	Why         string         `json:"why"`
	Seed        int64          `json:"seed"`
	Trace       bool           `json:"trace"`
	Reps        []repSummary   `json:"repetitions"`
	Correct     bool           `json:"correct"`
	Problems    []string       `json:"problems,omitempty"`
	Notes       []string       `json:"notes,omitempty"`
	Metrics     []metricRecord `json:"metrics"`
	SelfTime    []selfRow      `json:"self_time,omitempty"`
	CPU         []pkgShare     `json:"cpu_by_package,omitempty"`
	ChromeTrace string         `json:"chrome_trace,omitempty"`
}

type repSummary struct {
	Workers     int     `json:"workers"`
	Traced      bool    `json:"traced"`
	SetupS      float64 `json:"setup_s"`
	WindowS     float64 `json:"window_host_s"`
	HostTxnPerS float64 `json:"host_txn_per_s"`
	WarmupMs    float64 `json:"warmup_virtual_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tpcc-fastlog, tpcc-paged or tpcc-eager3")
	seed := fs.Int64("seed", 1, "seed of the terminals' transaction streams and the simulator")
	seconds := fs.Int("seconds", 30, "host seconds to keep repeating the measured window")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced repetitions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "tpccbench: need --workload (tpcc-fastlog, tpcc-paged, tpcc-eager3), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "tpccbench: %v\n", err)
		return 1
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "tpccbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "tpccbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs repetitions for the given host time and reports.
func measure(w workload, seed int64, budget time.Duration, traced bool, out io.Writer) (*resultLine, error) {
	nproc := runtime.GOMAXPROCS(0)
	start := time.Now()
	prefix := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	var reps []*repResult
	var sums []repSummary
	var profiles []string
	var firstTrace *tracer
	for i := 0; ; i++ {
		// Replicated workloads alternate between 1 and nproc quantum
		// workers; traced runs alternate in pairs, so traced and untraced
		// repetitions see the same worker counts.
		k := i
		if traced {
			k = i / 2
		}
		workers := 1
		if w.devices > 1 && k%2 == 1 {
			workers = nproc
		}
		var tr *tracer
		profile := ""
		if traced && i%2 == 1 {
			tr = newTracer()
			profile = fmt.Sprintf("%s-rep%d.cpu.pprof", prefix, i)
			profiles = append(profiles, profile)
		}
		repStart := time.Now()
		r, err := runRep(w, seed, workers, tr, profile)
		if err != nil {
			return nil, err
		}
		if r.fault != "" {
			return reportFault(w, seed, traced, prefix, reps, r, out)
		}
		if tr != nil && firstTrace == nil {
			firstTrace = tr
		}
		if i > 0 {
			if diff := diffVirtual(reps[0], r); diff != "" {
				return nil, fmt.Errorf("determinism guard: repetition %d (%d workers) differs from repetition 0 (%d workers): %s; refusing to report",
					i, workers, sums[0].Workers, diff)
			}
		}
		reps = append(reps, r)
		sums = append(sums, repSummary{Workers: workers, Traced: tr != nil, SetupS: r.setupS, WindowS: r.windowS,
			HostTxnPerS: r.hostTxnPerS, WarmupMs: float64(r.warmup) / 1e6})
		if len(reps) >= 2 && time.Since(start)+time.Since(repStart) > budget {
			break
		}
	}

	r0 := reps[0]
	res := &resultLine{Correct: true, Metrics: map[string]metricOut{}}
	file := resultFile{Host: host(), Workload: w.name, Why: w.why, Seed: seed, Trace: traced, Reps: sums, Correct: true}
	seen := map[string]bool{}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			if !seen[p] {
				seen[p] = true
				file.Problems = append(file.Problems, p)
			}
		}
	}
	file.Notes = r0.notes
	if len(file.Problems) > 0 {
		// A failed check fails the run: every transaction counts as failed.
		res.Correct, file.Correct = false, false
		res.Failed = res.Attempted
	}

	plain, tracedReps := splitReps(reps, sums)
	med := func(f func(*repResult) float64, rs []*repResult) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = f(r)
		}
		return median(vs)
	}
	values := map[string]float64{}
	for k, v := range r0.virtual {
		values[k] = v
	}
	values["host_txn_per_s"] = med(func(r *repResult) float64 { return r.hostTxnPerS }, plain)
	values["setup_s"] = med(func(r *repResult) float64 { return r.setupS }, reps)
	values["live_heap_mb"] = med(func(r *repResult) float64 { return r.heapMB }, plain)
	values["sim.events_per_host_s"] = med(func(r *repResult) float64 { return r.eventsPerS }, plain)
	values["sim.allocs_per_event"] = med(func(r *repResult) float64 { return r.allocsPerEvent }, plain)
	samples := map[string]int{"host_txn_per_s": len(plain), "setup_s": len(reps), "live_heap_mb": len(plain),
		"sim.events_per_host_s": len(plain), "sim.allocs_per_event": len(plain)}
	for k, n := range r0.samples {
		samples[k] = n
	}
	// Over all repetitions, after the correctness gates: a failed gate
	// fails every transaction.
	values["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	values["completed_frac"] = 1 - values["failed_frac"]
	samples["failed_frac"] = int(res.Attempted)
	samples["completed_frac"] = int(res.Attempted)

	if traced {
		tracedTPS := med(func(r *repResult) float64 { return r.hostTxnPerS }, tracedReps)
		values["trace.overhead_frac"] = 1 - tracedTPS/values["host_txn_per_s"]
		samples["trace.overhead_frac"] = len(tracedReps)
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		rows, err := foldProfile(exe, profiles)
		if err != nil {
			return nil, err
		}
		file.CPU = rows
		for k, v := range cpuMetrics(rows) {
			values[k] = v
			samples[k] = len(profiles)
		}
		file.SelfTime = firstTrace.selfTimes()
		file.ChromeTrace = prefix + ".trace.json"
		if err := writeFile(file.ChromeTrace, firstTrace.writeChrome); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	report := endToEnd
	if traced {
		report = perLayer
	}
	for _, m := range report {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	for _, group := range [][]metricDef{endToEnd, {failedFrac}, perLayer} {
		for _, m := range group {
			if v, ok := values[m.name]; ok {
				file.Metrics = append(file.Metrics, metricRecord{Name: m.name, Value: v, Unit: m.unit,
					Samples: samples[m.name], Better: m.better, Moves: m.moves, On: m.on})
			}
		}
	}

	printReport(out, w, seed, traced, sums, values, samples, &file)
	if err := writeResult(out, prefix, &file); err != nil {
		return nil, err
	}
	return res, nil
}

// reportFault reports a run that a program fault stopped: it fails, with
// every transaction of every repetition counted as failed, and has no
// metrics to report.
func reportFault(w workload, seed int64, traced bool, prefix string, reps []*repResult, faulted *repResult, out io.Writer) (*resultLine, error) {
	res := &resultLine{Metrics: map[string]metricOut{}}
	for _, r := range append(reps, faulted) {
		res.Attempted += r.attempted
	}
	res.Failed = res.Attempted
	file := resultFile{Host: host(), Workload: w.name, Why: w.why, Seed: seed, Trace: traced, Problems: []string{faulted.fault}}
	fmt.Fprintf(out, "tpccbench %s seed %d trace %d: repetition %d stopped\nCHECK FAILED: %s\n", w.name, seed, btoi(traced), len(reps), faulted.fault)
	if err := writeResult(out, prefix, &file); err != nil {
		return nil, err
	}
	return res, nil
}

// writeResult writes the result file and prints its path.
func writeResult(out io.Writer, prefix string, file *resultFile) error {
	path := fmt.Sprintf("%s-trace%d.json", prefix, btoi(file.Trace))
	if err := writeFile(path, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(file)
	}); err != nil {
		return fmt.Errorf("write result file: %w", err)
	}
	fmt.Fprintf(out, "result file: %s\n", path)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// splitReps separates untraced from traced repetitions. Untraced runs
// give every host metric; traced runs only the tracing overhead.
func splitReps(reps []*repResult, sums []repSummary) (plain, traced []*repResult) {
	for i, r := range reps {
		if sums[i].Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	return plain, traced
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// diffVirtual names the virtual-time metrics on which two repetitions of
// one seed disagree, bit for bit.
func diffVirtual(a, b *repResult) string {
	var diffs []string
	for _, k := range sortedKeys(a.virtual) {
		if bv, ok := b.virtual[k]; !ok || math.Float64bits(a.virtual[k]) != math.Float64bits(bv) {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", k, a.virtual[k], bv))
		}
	}
	if len(diffs) == 0 && len(a.virtual) != len(b.virtual) {
		diffs = append(diffs, "different metric sets")
	}
	return strings.Join(diffs, ", ")
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// printReport writes the human-readable tables.
func printReport(out io.Writer, w workload, seed int64, traced bool, sums []repSummary, values map[string]float64, samples map[string]int, file *resultFile) {
	h := file.Host
	fmt.Fprintf(out, "tpccbench %s seed %d trace %d: %d repetitions, virtual metrics identical across all\n", w.name, seed, btoi(traced), len(sums))
	fmt.Fprintf(out, "host: nproc=%d cpu=%q go=%s GOMAXPROCS=%d GOGC=%d\n", h.NProc, h.CPUModel, h.GoVersion, h.GOMAXPROCS, h.GCPercent)
	for i, s := range sums {
		fmt.Fprintf(out, "  rep %d: workers=%d traced=%v setup=%.3fs window=%.3fs host_txn/s=%.0f warm-up=%.0fms(virtual)\n",
			i, s.Workers, s.Traced, s.SetupS, s.WindowS, s.HostTxnPerS, s.WarmupMs)
	}
	fmt.Fprintf(out, "failed_frac %.6f  correct %v\n", values["failed_frac"], file.Correct)
	for _, p := range file.Problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	for _, n := range file.Notes {
		fmt.Fprintf(out, "NOTE: %s\n", n)
	}
	table := func(title string, defs []metricDef, layer bool) {
		fmt.Fprintf(out, "\n%-30s %16s %-6s %8s", title, "value", "unit", "n")
		if layer {
			fmt.Fprintf(out, "  %-40s %s", "moves", "on")
		}
		fmt.Fprintln(out)
		for _, m := range defs {
			v, ok := values[m.name]
			if !ok {
				continue
			}
			n := "-"
			if c, ok := samples[m.name]; ok {
				n = fmt.Sprint(c)
			}
			fmt.Fprintf(out, "%-30s %16.6g %-6s %8s", m.name, v, m.unit, n)
			if layer {
				fmt.Fprintf(out, "  %-40s %s", m.moves, m.on)
			}
			fmt.Fprintln(out)
		}
	}
	table("end-to-end", endToEnd, false)
	table("per-layer", perLayer, true)
	if len(file.SelfTime) > 0 {
		fmt.Fprintf(out, "\nself time by layer (virtual, first traced repetition)\n%-10s %-10s %8s %12s %14s %7s\n", "root", "layer", "spans", "self_ms", "per_root_us", "share")
		for _, r := range file.SelfTime {
			fmt.Fprintf(out, "%-10s %-10s %8d %12.3f %14.3f %6.1f%%\n", r.Root, r.Layer, r.Spans, r.SelfMs, r.PerRootUs, 100*r.Share)
		}
	}
	if len(file.CPU) > 0 {
		fmt.Fprintf(out, "\nhost CPU by package (traced repetitions)\n")
		for _, r := range file.CPU {
			fmt.Fprintf(out, "%-28s %6.2f%%\n", r.Pkg, 100*r.Share)
		}
	}
	if file.ChromeTrace != "" {
		fmt.Fprintf(out, "\nspans: %s (Chrome trace-event JSON)\n", file.ChromeTrace)
	}
}
