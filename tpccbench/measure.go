package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
	"unsafe"

	"xssd/internal/obs"
	"xssd/internal/sim"
)

// counters is one reading of every public counter the benchmark uses,
// taken between two runs of the group (no member is running, so reading
// any member's devices is race-free).
type counters struct {
	now    time.Duration
	events int64

	walDurable, walFlushes, walBytes int64

	// summed over every device
	programBytes, nandPrograms, nandReads, nandErases int64
	ftlHost, ftlGC, ftlGCErases                       int64
	destPages, destPartial, destFiller                int64

	// the log device
	cmbBytesIn, cmbOverruns                 int64
	mirrored, counterUpdates, resends       int64
	convWaitN, convWaitSum                  int64
	destWaitN, destWaitSum, gcOps           int64
	poolHits, poolMisses, poolEvictions     int64
	committed, aborts, retries              int64
	commitsDone, attemptsDone, failuresDone int
}

func (st *stack) read() counters {
	c := counters{now: st.now(), events: st.group.Events(), walDurable: st.log.DurableLSN()}
	_, c.walFlushes, c.walBytes = st.log.Stats()
	for _, d := range st.devs {
		s := d.Stats()
		c.nandPrograms += s.NAND.Programs
		c.programBytes += s.NAND.Programs * int64(d.BlockSize())
		c.nandReads += s.NAND.Reads
		c.nandErases += s.NAND.Erases
		c.ftlHost += s.FTL.HostPages
		c.ftlGC += s.FTL.GCPages
		c.ftlGCErases += s.FTL.GCErases
		c.destPages += s.Destage.Pages
		c.destPartial += s.Destage.PartialPages
		c.destFiller += s.Destage.FillerBytes
	}
	prim := st.prim()
	s := prim.Stats()
	c.cmbBytesIn, c.cmbOverruns = s.CMB.BytesIn, s.CMB.Overruns
	c.mirrored, c.counterUpdates, c.resends = s.Transport.MirroredBytes, s.Transport.CounterUpdates, s.Transport.RepairResends
	c.gcOps = s.Sched.GC.Ops
	reg := obs.For(st.env)
	conv := reg.Histogram(prim.Name() + "/sched/conventional/wait_ns")
	dest := reg.Histogram(prim.Name() + "/sched/destage/wait_ns")
	c.convWaitN, c.convWaitSum = conv.N(), conv.Sum()
	c.destWaitN, c.destWaitSum = dest.N(), dest.Sum()
	c.poolHits = reg.Counter("tpccbench/pager/hits").Value()
	c.poolMisses = reg.Counter("tpccbench/pager/misses").Value()
	c.poolEvictions = reg.Counter("tpccbench/pager/evictions").Value()
	for _, t := range st.terms {
		byType, aborts, retries := t.client.Counts()
		for _, n := range byType {
			c.committed += n
		}
		c.aborts += aborts
		c.retries += retries
	}
	c.commitsDone, c.attemptsDone, c.failuresDone = len(st.commits), st.attempts, st.fails
	return c
}

// startWindow restarts the sampled maxima and minima and drops the
// per-call records of set-up and warm-up, so the window's measurements
// start clean. It reserves room for the window's records from the rates
// seen in the warm-up, so recording them allocates nothing inside the
// window.
func (st *stack) startWindow(warm time.Duration) {
	st.sink.cmbLiveMax, st.sink.peerLagMax, st.sink.freeMin = 0, 0, math.MaxInt
	st.sink.sample()
	scale := 1.25 * float64(st.w.window) / float64(warm)
	st.commits = reserve(st.commits[:0], len(st.commits), scale)
	// A commit retired at this instant may not have run yet; its sink
	// write must stay findable.
	now := st.now()
	keep := st.sink.writes[:0]
	for _, w := range st.sink.writes {
		if w.end >= now {
			keep = append(keep, w)
		}
	}
	st.sink.writes = reserve(keep, len(st.sink.writes), scale)
	if st.store != nil {
		s := st.store
		s.reads = reserve(s.reads[:0], len(s.reads), scale)
		s.batches = reserve(s.batches[:0], len(s.batches), scale)
		s.syncs = reserve(s.syncs[:0], len(s.syncs), scale)
		s.residentMax = s.pager.Resident()
	}
}

// reserve returns recs in a new array with room for scale*seen more
// records.
func reserve[T any](recs []T, seen int, scale float64) []T {
	out := make([]T, len(recs), len(recs)+int(scale*float64(seen))+64)
	copy(out, recs)
	return out
}

// recordBytes is the heap held by the benchmark's own per-call records.
// live_heap_mb leaves it out, so it measures the simulated stack.
func (st *stack) recordBytes() uint64 {
	n := cap(st.commits)*int(unsafe.Sizeof(commitRec{})) +
		cap(st.sink.writes)*int(unsafe.Sizeof(sinkWrite{})) +
		cap(st.ckpts)*int(unsafe.Sizeof(ckptRec{}))
	if st.store != nil {
		n += (cap(st.store.reads) + cap(st.store.batches) + cap(st.store.syncs)) * int(unsafe.Sizeof(interval{}))
	}
	return uint64(n)
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never uses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeAmp(a, b counters) float64 {
	return ratio(float64(b.programBytes-a.programBytes), float64(b.walDurable-a.walDurable))
}

func hitRatio(a, b counters) float64 {
	h := float64(b.poolHits - a.poolHits)
	return ratio(h, h+float64(b.poolMisses-a.poolMisses))
}

// levelTolerance is how far write amplification and the hit ratio may
// move between consecutive stretches and still count as level.
const levelTolerance = 0.05

func level(x, y float64) bool {
	if x == y {
		return true
	}
	return math.Abs(x-y) <= levelTolerance*math.Max(math.Abs(x), math.Abs(y))
}

// warmUp runs the workload until write amplification and the pool hit
// ratio level off between consecutive chunks (and, on the paged
// workload, the FTL has started collecting). It reports whether they did
// before warmMax.
func (st *stack) warmUp() bool {
	w := st.w
	st.runTo(st.now() + w.warmMin)
	prev := st.read()
	var prevWA, prevHR float64
	for k := 0; ; k++ {
		st.runTo(st.now() + w.warmChunk)
		cur := st.read()
		wa, hr := writeAmp(prev, cur), hitRatio(prev, cur)
		gcOK := !w.paged || cur.ftlGCErases > 0
		if k > 0 && gcOK && level(wa, prevWA) && level(hr, prevHR) {
			return true
		}
		if st.now() >= w.warmMax {
			return false
		}
		prev, prevWA, prevHR = cur, wa, hr
	}
}

// repResult is everything one repetition measured.
type repResult struct {
	// virtual holds every metric in modelled time or counts: exact for a
	// seed, so repetitions must agree bit for bit.
	virtual map[string]float64
	// samples is the number of samples behind each timing metric.
	samples map[string]int

	setupS, windowS, heapMB float64
	allocsPerEvent          float64
	hostTxnPerS, eventsPerS float64

	attempted, failed int64
	// fault is set when a simulated process panicked: the repetition
	// stopped there and measured nothing.
	fault    string
	problems []string // correctness failures
	notes    []string // steady-state warnings
	warmup   time.Duration
}

// runRep builds the workload, warms it up, measures one window, and runs
// the correctness gate with its crash recovery. A panic in a simulated
// process (the engine fails loudly on a corrupt page) ends the
// repetition as a fault with every transaction it attempted failed.
func runRep(w workload, seed int64, workers int, tr *tracer, profile string) (rep *repResult, err error) {
	hostStart := time.Now()
	st, err := build(w, seed, workers, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	defer func() {
		if v := recover(); v != nil {
			pp, ok := v.(*sim.ProcPanic)
			if !ok {
				panic(v)
			}
			n := int64(st.attempts)
			rep = &repResult{attempted: n, failed: n, fault: fmt.Sprintf("program fault at %v: process %s panicked: %v", st.now(), pp.Proc, pp.Value)}
			err = nil
		}
	}()
	r := &repResult{virtual: map[string]float64{}, samples: map[string]int{}}
	warmStart := st.now()
	if !st.warmUp() {
		r.notes = append(r.notes, fmt.Sprintf("warm-up: write_amp or btree.hit_ratio still moving after %v", w.warmMax))
	}
	r.warmup = st.now() - warmStart
	r.setupS = time.Since(hostStart).Seconds()

	st.startWindow(r.warmup)
	// Every window starts from a collected heap, so the host time does
	// not depend on where the previous repetition left the collector.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var stopProfile func() error
	if profile != "" {
		if stopProfile, err = startProfile(profile); err != nil {
			return nil, err
		}
	}
	c0 := st.read()
	if w.paged && c0.ftlGCErases == 0 {
		r.notes = append(r.notes, "warm-up: the FTL had not started garbage collection when the window opened")
	}
	h0 := time.Now()
	st.runTo(c0.now + w.window/2)
	hMid := time.Since(h0)
	cMid := st.read()
	h1 := time.Now()
	st.runTo(c0.now + w.window)
	hostWin := hMid + time.Since(h1)
	c1 := st.read()
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	r.heapMB = float64(heap.HeapAlloc-st.recordBytes()) / (1 << 20)
	r.windowS = hostWin.Seconds()

	if wa0, wa1 := writeAmp(c0, cMid), writeAmp(cMid, c1); !level(wa0, wa1) {
		r.notes = append(r.notes, fmt.Sprintf("steady state: write_amp %.4f in the first half of the window, %.4f in the second", wa0, wa1))
	}
	if h0r, h1r := hitRatio(c0, cMid), hitRatio(cMid, c1); !level(h0r, h1r) {
		r.notes = append(r.notes, fmt.Sprintf("steady state: btree.hit_ratio %.4f in the first half of the window, %.4f in the second", h0r, h1r))
	}

	if err := st.windowMetrics(r, c0, c1); err != nil {
		return nil, err
	}
	events := float64(c1.events - c0.events)
	r.eventsPerS = events / r.windowS
	r.hostTxnPerS = float64(c1.commitsDone-c0.commitsDone) / r.windowS
	r.allocsPerEvent = ratio(float64(ms1.Mallocs-ms0.Mallocs), events)

	rec, problems, err := st.check()
	if err != nil {
		return nil, err
	}
	r.problems = problems
	r.virtual["recovery_ms"] = float64(rec.dur) / 1e6
	r.virtual["recovery.tail_records"] = float64(rec.tailRecs)
	r.virtual["recovery.tail_frac"] = ratio(float64(rec.tailRecs), float64(rec.totalRecs))
	r.virtual["recovery.page_reads"] = float64(rec.pageReads)
	return r, nil
}

// timing records the q-quantile of ds (divided by scale) under name,
// refusing a tail quantile with fewer than tailGuard samples beyond it.
func (r *repResult) timing(name string, ds []time.Duration, q float64, scale float64) error {
	r.samples[name] = len(ds)
	if len(ds) == 0 {
		r.virtual[name] = 0
		return nil
	}
	v, beyond := quantile(sortDurations(ds), q)
	if q > 0.5 && beyond < tailGuard {
		return fmt.Errorf("%s: only %d of %d samples lie beyond the %g quantile (need %d); lengthen the window", name, beyond, len(ds), q, tailGuard)
	}
	r.virtual[name] = float64(v) / scale
	return nil
}

func inWindow(t time.Duration, a, b counters) bool { return t >= a.now && t < b.now }

// windowDurations returns the durations of the calls that finished inside
// the window [a, b).
func windowDurations(calls []interval, a, b counters) []time.Duration {
	var ds []time.Duration
	for _, c := range calls {
		if inWindow(c.end, a, b) {
			ds = append(ds, c.dur())
		}
	}
	return ds
}

// windowMetrics derives every virtual-time metric of the window [a, b).
func (st *stack) windowMetrics(r *repResult, a, b counters) error {
	win := (b.now - a.now).Seconds()
	v := r.virtual
	const usScale, msScale = 1e3, 1e6

	// End to end.
	commits := st.commits[a.commitsDone:b.commitsDone]
	lat := make([]time.Duration, len(commits))
	for i, c := range commits {
		lat[i] = c.dur()
	}
	if err := r.timing("commit_p50_us", lat, 0.5, usScale); err != nil {
		return err
	}
	if err := r.timing("commit_p99_us", lat, 0.99, usScale); err != nil {
		return err
	}
	r.attempted = int64(b.attemptsDone - a.attemptsDone)
	r.failed = int64(b.failuresDone - a.failuresDone)
	v["txn_per_s"] = float64(len(commits)) / win
	v["write_amp"] = writeAmp(a, b)
	r.samples["txn_per_s"] = len(commits)

	// tpcc/db
	txns := float64((b.committed - a.committed) + (b.aborts - a.aborts))
	v["tpcc.retries_per_txn"] = ratio(float64(b.retries-a.retries), txns)
	v["tpcc.abort_frac"] = ratio(float64(b.aborts-a.aborts), txns)

	// wal: sink writes that finished inside the window.
	var wdur []time.Duration
	var busy time.Duration
	for _, w := range st.sink.writes {
		if inWindow(w.end, a, b) {
			wdur = append(wdur, w.dur())
			busy += w.dur()
		}
	}
	v["wal.flushes"] = float64(b.walFlushes - a.walFlushes)
	v["wal.batch_bytes_mean"] = ratio(float64(b.walBytes-a.walBytes), float64(b.walFlushes-a.walFlushes))
	if err := r.timing("wal.sink_write_p50_us", wdur, 0.5, usScale); err != nil {
		return err
	}
	if err := r.timing("wal.sink_write_p90_us", wdur, 0.9, usScale); err != nil {
		return err
	}
	v["wal.sink_busy_frac"] = busy.Seconds() / win
	var gw []time.Duration
	for _, c := range commits {
		if c.lsn == 0 {
			continue
		}
		if w, ok := st.sink.writeFor(c.lsn); ok {
			gw = append(gw, c.dur()-w.dur())
		}
	}
	if err := r.timing("wal.group_wait_p50_us", gw, 0.5, usScale); err != nil {
		return err
	}

	// villars cmb and destage
	v["cmb.bytes_in"] = float64(b.cmbBytesIn - a.cmbBytesIn)
	v["cmb.overruns"] = float64(b.cmbOverruns - a.cmbOverruns)
	v["cmb.live_bytes_max"] = float64(st.sink.cmbLiveMax)
	v["destage.pages"] = float64(b.destPages - a.destPages)
	v["destage.partial_frac"] = ratio(float64(b.destPartial-a.destPartial), float64(b.destPages-a.destPages))
	v["destage.filler_bytes"] = float64(b.destFiller - a.destFiller)

	// transport / ntb / repl
	v["transport.mirrored_bytes"] = float64(b.mirrored - a.mirrored)
	v["transport.counter_updates"] = float64(b.counterUpdates - a.counterUpdates)
	v["transport.repair_resends"] = float64(b.resends - a.resends)
	v["transport.peer_lag_max_bytes"] = float64(st.sink.peerLagMax)

	// btree pager
	n := float64(len(commits))
	v["btree.hit_ratio"] = hitRatio(a, b)
	v["btree.misses_per_txn"] = ratio(float64(b.poolMisses-a.poolMisses), n)
	v["btree.evictions"] = float64(b.poolEvictions - a.poolEvictions)
	v["btree.resident_pages_max"] = 0
	var reads, batches, syncs []time.Duration
	if st.store != nil {
		v["btree.resident_pages_max"] = float64(st.store.residentMax)
		reads = windowDurations(st.store.reads, a, b)
		batches = windowDurations(st.store.batches, a, b)
		syncs = windowDurations(st.store.syncs, a, b)
	}
	v["pagestore.reads"] = float64(len(reads))
	if err := r.timing("pagestore.read_p50_us", reads, 0.5, usScale); err != nil {
		return err
	}
	if err := r.timing("pagestore.read_p99_us", reads, 0.99, usScale); err != nil {
		return err
	}
	if err := r.timing("pagestore.write_batch_p50_us", batches, 0.5, usScale); err != nil {
		return err
	}
	if err := r.timing("pagestore.sync_p50_us", syncs, 0.5, usScale); err != nil {
		return err
	}

	// ckpt: attempts that finished inside the window.
	var ck []ckptRec
	var ckDur []time.Duration
	var completed, pages int64
	for _, c := range st.ckpts {
		if !inWindow(c.end, a, b) {
			continue
		}
		ck = append(ck, c)
		if c.err != nil {
			r.notes = append(r.notes, fmt.Sprintf("checkpoint at %v failed: %v", c.start, c.err))
		}
		if c.ok {
			completed++
			pages += c.pages
			ckDur = append(ckDur, c.dur())
		}
	}
	v["ckpt.completed"] = float64(completed)
	v["ckpt.useful_frac"] = ratio(float64(completed), float64(len(ck)))
	v["ckpt.pages_per_ckpt"] = ratio(float64(pages), float64(completed))
	if err := r.timing("ckpt.duration_p50_ms", ckDur, 0.5, msScale); err != nil {
		return err
	}
	var overlap, idle []time.Duration
	if st.w.paged {
		for _, c := range commits {
			if overlapsAny(c.interval, st.ckpts) {
				overlap = append(overlap, c.dur())
			} else {
				idle = append(idle, c.dur())
			}
		}
	}
	if err := r.timing("ckpt.commit_p90_overlap_us", overlap, 0.9, usScale); err != nil {
		return err
	}
	if err := r.timing("ckpt.commit_p90_idle_us", idle, 0.9, usScale); err != nil {
		return err
	}

	// sched, ftl, nand
	v["sched.conventional_wait_us"] = ratio(float64(b.convWaitSum-a.convWaitSum), float64(b.convWaitN-a.convWaitN)) / usScale
	v["sched.destage_wait_us"] = ratio(float64(b.destWaitSum-a.destWaitSum), float64(b.destWaitN-a.destWaitN)) / usScale
	r.samples["sched.conventional_wait_us"] = int(b.convWaitN - a.convWaitN)
	r.samples["sched.destage_wait_us"] = int(b.destWaitN - a.destWaitN)
	v["sched.gc_ops"] = float64(b.gcOps - a.gcOps)
	host := float64(b.ftlHost - a.ftlHost)
	v["ftl.waf"] = ratio(host+float64(b.ftlGC-a.ftlGC), host)
	v["ftl.gc_pages"] = float64(b.ftlGC - a.ftlGC)
	v["ftl.free_blocks_min"] = float64(st.sink.freeMin)
	v["nand.programs"] = float64(b.nandPrograms - a.nandPrograms)
	v["nand.reads"] = float64(b.nandReads - a.nandReads)
	v["nand.erases"] = float64(b.nandErases - a.nandErases)
	v["sim.events"] = float64(b.events - a.events)
	return nil
}

// overlapsAny reports whether iv intersects any checkpoint attempt.
func overlapsAny(iv interval, cks []ckptRec) bool {
	i := sort.Search(len(cks), func(i int) bool { return cks[i].end > iv.start })
	return i < len(cks) && cks[i].start < iv.end
}

// startProfile starts a CPU profile into path and returns the function
// that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
