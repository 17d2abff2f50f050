package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"xssd/internal/sim"
)

// Span tracks in the Chrome trace: one per shared resource, and one per
// (terminal, in-flight slot) so a track's spans never overlap.
const (
	trackSink = 1 + iota
	trackCkpt
	trackRecovery
	trackStore
	trackTermBase  = 100
	trackTermSlots = 32
)

// span is one timed interval at a layer boundary. Spans of one
// transaction share txn; parent indexes the causing span (-1 for roots).
type span struct {
	name   string
	track  int
	iv     interval
	parent int
	txn    int64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how untraced runs stay free of
// tracing cost.
type tracer struct {
	spans []span
	open  map[*sim.Proc]int // the span currently open on a process
}

func newTracer() *tracer { return &tracer{open: map[*sim.Proc]int{}} }

func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a span on p; calls into wrapped layers made on p become its
// children until end.
func (t *tracer) begin(p *sim.Proc, s span) int {
	if t == nil {
		return -1
	}
	i := t.add(s)
	t.open[p] = i
	return i
}

func (t *tracer) end(p *sim.Proc, i int, at time.Duration) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].iv.end = at
	delete(t.open, p)
}

// child records a finished span under whatever span is open on p.
func (t *tracer) child(p *sim.Proc, name string, iv interval) {
	if t == nil {
		return
	}
	s := span{name: name, track: trackStore, iv: iv, parent: -1}
	if i, ok := t.open[p]; ok {
		s.parent, s.track, s.txn = i, t.spans[i].track, t.spans[i].txn
	}
	t.add(s)
}

// chromeEvent is one Chrome trace-event ("X" complete event; ts and dur
// in microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON, which opens
// offline in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(w io.Writer) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"span": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		if s.txn != 0 {
			args["txn"] = s.txn
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: us(s.iv.start), Dur: us(s.iv.dur()), Tid: s.track, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfRow is one line of the self-time table: a layer's self time inside
// the span trees of one root kind (txn, ckpt or recovery).
type selfRow struct {
	Root   string  `json:"root"`
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	// PerRootUs is the layer's self time per root span.
	PerRootUs float64 `json:"per_root_us"`
	Share     float64 `json:"share"`
}

// selfTimes derives each layer's self time: a span's duration minus the
// part of it its children cover. Shared-resource spans with no parent and
// no transaction (the sink's own track) are left out, since each
// transaction already carries the part of the write it waited for.
func (t *tracer) selfTimes() []selfRow {
	kids := make([][]int, len(t.spans))
	rootOf := make([]int, len(t.spans))
	for i, s := range t.spans {
		rootOf[i] = i
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
			rootOf[i] = rootOf[s.parent] // parents precede children
		}
	}
	type key struct{ root, layer string }
	self := map[key]time.Duration{}
	count := map[key]int{}
	roots := map[string]int{}
	total := map[string]time.Duration{}
	for i, s := range t.spans {
		root := t.spans[rootOf[i]]
		if root.name == "villars.sink_write" || root.track == trackStore {
			continue
		}
		if s.parent < 0 {
			roots[root.name]++
			total[root.name] += s.iv.dur()
		}
		var ivs []interval
		for _, k := range kids[i] {
			c := t.spans[k].iv
			if c.start < s.iv.start {
				c.start = s.iv.start
			}
			if c.end > s.iv.end {
				c.end = s.iv.end
			}
			if c.end > c.start {
				ivs = append(ivs, c)
			}
		}
		k := key{root.name, layerOf(s.name)}
		self[k] += s.iv.dur() - covered(ivs)
		count[k]++
	}
	var rows []selfRow
	for k, d := range self {
		r := selfRow{Root: k.root, Layer: k.layer, Spans: count[k], SelfMs: float64(d) / 1e6}
		if n := roots[k.root]; n > 0 {
			r.PerRootUs = us(d) / float64(n)
		}
		if tot := total[k.root]; tot > 0 {
			r.Share = float64(d) / float64(tot)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Root != rows[j].Root {
			return rows[i].Root > rows[j].Root
		}
		return rows[i].SelfMs > rows[j].SelfMs
	})
	return rows
}

// covered returns the length of the union of ivs.
func covered(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var sum time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			sum += cur.dur()
			cur = iv
		}
	}
	if len(ivs) > 0 {
		sum += cur.dur()
	}
	return sum
}

// cpuPackages are the packages the per-layer CPU metrics name; every
// other package's samples count under cpu.other.
var cpuPackages = []string{"sim", "villars", "wal", "db", "tpcc", "btree", "ntb", "obs", "runtime"}

// pkgShare is one row of the CPU-by-package table.
type pkgShare struct {
	Pkg   string  `json:"pkg"`
	Share float64 `json:"share"`
}

// foldProfile merges CPU profiles and folds them by package with the
// local `go tool pprof -top`, returning each package's share of the flat
// samples, largest first.
func foldProfile(exe string, profiles []string) ([]pkgShare, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", exe}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	share := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[2], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		share[pkgOf(f[5])] += pct / 100
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(share) == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", strings.Join(profiles, " "))
	}
	rows := make([]pkgShare, 0, len(share))
	for k, v := range share {
		rows = append(rows, pkgShare{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Share != rows[j].Share {
			return rows[i].Share > rows[j].Share
		}
		return rows[i].Pkg < rows[j].Pkg
	})
	return rows, nil
}

// pkgOf maps a pprof function name to a short package name: the last
// element of an xssd package path, "runtime" for the Go runtime, "bench"
// for this program, and the import path for anything else.
func pkgOf(fn string) string {
	// Compiler-generated helpers (type:.hash.<pkg>.T, type:.eq.<pkg>.T)
	// belong to the type's package.
	for _, gen := range []string{"type:.hash.", "type:.eq."} {
		fn = strings.TrimPrefix(fn, gen)
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime" // assembly routines such as memeqbody
	}
	path := fn[:slash+1+dot]
	switch {
	case strings.HasPrefix(path, "xssd/internal/"):
		return strings.TrimPrefix(path, "xssd/internal/")
	case path == "main":
		return "bench"
	case path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/"):
		return "runtime"
	}
	return path
}

// cpuMetrics turns the folded profile into the cpu.* metrics.
func cpuMetrics(rows []pkgShare) map[string]float64 {
	m := map[string]float64{}
	named := map[string]bool{}
	for _, p := range cpuPackages {
		named[p] = true
		m["cpu."+p] = 0
	}
	m["cpu.other"] = 0
	for _, r := range rows {
		if named[r.Pkg] {
			m["cpu."+r.Pkg] += r.Share
		} else {
			m["cpu.other"] += r.Share
		}
	}
	return m
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
