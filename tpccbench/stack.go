package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"xssd/internal/btree"
	"xssd/internal/ckpt"
	"xssd/internal/core"
	"xssd/internal/db"
	"xssd/internal/nand"
	"xssd/internal/obs"
	"xssd/internal/pcie"
	"xssd/internal/pm"
	"xssd/internal/repl"
	"xssd/internal/sim"
	"xssd/internal/tpcc"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// Load generation: a closed loop of terminals, each a simulated process
// that thinks, runs a transaction with RunMixAsync and keeps at most
// pipeDepth commits waiting for durability (the lat/tpcc/pipe16 commit
// path). A transaction's latency runs from its RunMixAsync call to the
// moment the log is durable past its LSN; the think time before it is
// not part of it. Terminals run one at a time inside the simulator, so
// the load adds no host threads.
const (
	terminals = 8
	pipeDepth = 16
	// thinkMean is the mean think time: Fig 9's per-transaction compute
	// budget (internal/bench fig9Compute). Each think time is drawn from
	// a negative exponential distribution truncated at thinkCap times its
	// mean, the TPC-C think-time distribution (TPC-C specification
	// clause 5.2.5.4). With a fixed think time the closed loop locks onto
	// the group-commit cycle: tpcc-eager3's median commit latency read
	// the same on ten seeds out of ten.
	thinkMean = 26 * time.Microsecond
	thinkCap  = 10
	// populationSeed generates the TPC-C database every run loads; the
	// run seed drives the terminals' transaction streams and the
	// simulator, so runs differ in their traffic, not in their data.
	populationSeed = 7
	// The log: Fig 9's 16 KB group commit.
	groupBytes   = 16 << 10
	groupTimeout = 10 * time.Millisecond
	hostMemBytes = 1 << 20
	// lagSamplePeriod paces the replica-lag sampler (replicated
	// workloads only).
	lagSamplePeriod = time.Microsecond
	// drainStep and drainLimit bound the post-window drain and the waits
	// for destage and replica convergence.
	drainStep  = 200 * time.Microsecond
	drainLimit = 2 * time.Second
	// quietPeriod is how long the flash must stay idle before the crash;
	// longer than any single NAND operation.
	quietPeriod = 5 * time.Millisecond
)

// The paged workload.
const (
	// pagedPoolDivisor sizes the buffer pool as a share of the loaded
	// dataset, so most page reads miss.
	pagedPoolDivisor = 8
	ckptInterval     = 20 * time.Millisecond
	// crashTail is how many transactions commit after the final
	// checkpoint before the crash: the tail recovery replays.
	crashTail = 600
	// The device has 8 dies of 28 blocks of 32 4 KB pages (7168 pages,
	// 5734 logical). Its destage ring holds the whole run's log
	// (pagedLogPages); the page-slot range holds two shadow slots for the
	// loaded pages and for the pages the run adds (pagedSlotsPerPage per
	// loaded page). Preconditioning writes the slot range
	// preconditionPasses times, which fills the array: the FTL is
	// collecting before the window opens.
	pagedLogPages      = 2048
	pagedSlotsPerPage  = 5
	preconditionPasses = 3
)

// workload is one named traffic mix. Everything about it is fixed except
// the seed, so the same seed gives the same inputs.
type workload struct {
	name string
	why  string
	// paged runs the stream on db.NewPaged with background checkpoints
	// and a crash recovered from page slots plus the WAL tail, on a
	// device whose FTL must be collecting garbage before the window.
	paged bool
	// devices is the size of the eager replica set the log device leads
	// (1 = standalone).
	devices int
	// window is the measured stretch of virtual time.
	window time.Duration
	// warm-up: at least warmMin, then chunks of warmChunk until write
	// amplification and the pool hit ratio level off, at most warmMax.
	warmMin, warmChunk, warmMax time.Duration
}

var workloads = []workload{
	{
		name:    "tpcc-fastlog",
		why:     "Fig 9 setting: classic engine logging to the Villars-SRAM fast side; commit time is wal and CMB; bypasses pager, checkpoints and replication",
		devices: 1, window: 40 * time.Millisecond,
		warmMin: 6 * time.Millisecond, warmChunk: 4 * time.Millisecond, warmMax: 30 * time.Millisecond,
	},
	{
		name:  "tpcc-paged",
		why:   "paged engine, pool 1/8 of the data, fuzzy checkpoints, crash recovery; pager reads and checkpoint writes share a small device that garbage-collects",
		paged: true, devices: 1, window: 5000 * time.Millisecond,
		warmMin: 100 * time.Millisecond, warmChunk: 50 * time.Millisecond, warmMax: 300 * time.Millisecond,
	},
	{
		name:    "tpcc-eager3",
		why:     "fastlog's stream led by a 3-device eager replica set over NTB, one sim.Group member each; its gap to fastlog is the replication cost",
		devices: 3, window: 40 * time.Millisecond,
		warmMin: 6 * time.Millisecond, warmChunk: 4 * time.Millisecond, warmMax: 30 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deviceConfig returns the workload's X-SSD. The classic workloads use
// the Fig 9 device: SRAM-backed CMB deep enough for destage to stream at
// program bandwidth, over a paper-scale array. The paged workload uses a
// small low-latency SLC-class array, so page reads, checkpoint images,
// destage and garbage collection share a handful of dies.
func (w workload) deviceConfig(name string) villars.Config {
	cfg := villars.DefaultConfig(name)
	cfg.Backing = pm.SRAMSpec
	if cfg.Backing.Capacity < 2<<20 {
		cfg.Backing.Capacity = 2 << 20
	}
	cfg.CMBSize = cfg.Backing.Capacity
	cfg.QueueSize = 32 << 10
	cfg.Geometry = nand.Geometry{Channels: 8, WaysPerChan: 8, BlocksPerDie: 64, PagesPerBlock: 64, PageSize: 16 << 10}
	if w.paged {
		cfg.Geometry = nand.Geometry{Channels: 4, WaysPerChan: 2, BlocksPerDie: 28, PagesPerBlock: 32, PageSize: 4 << 10}
		cfg.DestageLBAs = pagedLogPages
		cfg.Timing = nand.Timing{TRead: 5 * time.Microsecond, TProg: 100 * time.Microsecond, TErase: 1000 * time.Microsecond, BusRate: 800e6}
	}
	return cfg
}

// memberSeed derives a group member's seed from the run seed
// (splitmix64 finalizer).
func memberSeed(seed int64, idx int) int64 {
	z := uint64(seed) + uint64(idx+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// commitRec is one completed transaction: from its start to the moment
// the log was durable past its LSN (or, for a read-only transaction, to
// the moment it returned). lsn is 0 for read-only transactions.
type commitRec struct {
	interval
	lsn int64
}

// ckptRec is one checkpoint attempt timed around ckpt.Manager.RunOnce.
type ckptRec struct {
	interval
	ok    bool
	pages int64
	err   error
}

// terminal is one simulated TPC-C terminal and its durability tracker.
type terminal struct {
	id      int
	client  *tpcc.Client
	rng     *rand.Rand // think times
	pending []pending  // durable-pending commits in LSN order
	slots   [trackTermSlots]bool
	arrived *sim.Signal
	retired *sim.Signal
	done    bool
	tracked bool // the tracker has exited
}

type pending struct {
	start, execEnd time.Duration
	lsn            int64
	span, slot     int
}

// stack is one built instance of a workload.
type stack struct {
	w     workload
	tcfg  tpcc.Config
	group *sim.Group
	env   *sim.Env // member 0: the host side and the log device
	devs  []*villars.Device
	sink  *timedSink
	log   *wal.Log
	eng   *db.Engine

	// paged workload only
	store    *timedStore
	pool     int
	slotBase int64
	slots    int64
	mgr      *ckpt.Manager
	ckpts    []ckptRec
	ckptStop bool
	ckptDone bool

	terms    []*terminal
	tr       *tracer
	txnSeq   int64
	commits  []commitRec
	attempts int // transactions that returned from RunMixAsync
	fails    int // of which ended in an error
	stop     bool
}

func (st *stack) prim() *villars.Device { return st.devs[0] }

func (st *stack) now() time.Duration { return st.group.Now() }

func (st *stack) runTo(t time.Duration) { st.group.RunUntil(t) }

func (st *stack) close() { st.group.Close() }

// runUntil advances in drainStep increments until cond holds, failing
// after drainLimit of virtual time.
func (st *stack) runUntil(what string, cond func() bool) error {
	limit := st.now() + drainLimit
	for !cond() {
		if st.now() >= limit {
			return fmt.Errorf("%s: not done after %v of virtual time", what, drainLimit)
		}
		st.runTo(st.now() + drainStep)
	}
	return nil
}

// build assembles devices, log, engine and terminals and loads the
// database. It returns with the terminals released but not yet run.
func build(w workload, seed int64, workers int, tr *tracer) (*stack, error) {
	st := &stack{w: w, tcfg: tpcc.DefaultConfig(), tr: tr}
	// One member per device. A lone member sees no cross-member traffic,
	// so its quantum can be long; replica sets keep the default 1 µs
	// quantum, under the NTB hop.
	var quantum time.Duration
	if w.devices == 1 {
		quantum = time.Millisecond
	}
	st.group = sim.NewGroup(sim.GroupConfig{Workers: workers, Quantum: quantum, StartInline: true})
	st.env = st.group.NewEnv("host", seed)
	st.devs = append(st.devs, villars.New(st.env, w.deviceConfig("prim"), pcie.NewHostMemory(hostMemBytes)))
	for i := 1; i < w.devices; i++ {
		e := st.group.NewEnv(fmt.Sprintf("s%d", i), memberSeed(seed, i))
		st.devs = append(st.devs, villars.New(e, w.deviceConfig(fmt.Sprintf("s%d", i)), pcie.NewHostMemory(hostMemBytes)))
	}
	var cluster *repl.Cluster
	if w.devices > 1 {
		var err error
		if cluster, err = repl.New(st.env, st.devs); err != nil {
			st.close()
			return nil, err
		}
	}
	if w.paged {
		n, err := datasetPages(st.tcfg, st.prim().BlockSize())
		if err != nil {
			st.close()
			return nil, err
		}
		st.pool = n / pagedPoolDivisor
		st.slots = int64(pagedSlotsPerPage * n)
		if st.slotBase, err = st.prim().AllocLBARange(st.slots); err != nil {
			st.close()
			return nil, err
		}
	}

	var bootErr error
	booted := false
	st.env.Go("tpccbench-boot", func(p *sim.Proc) {
		defer func() { booted = true }()
		if cluster != nil {
			if bootErr = cluster.Setup(p, 0, core.Eager); bootErr != nil {
				return
			}
		}
		st.sink = newTimedSink(wal.NewVillarsSink(p, st.prim(), "log"), st.prim(), tr)
		st.log = wal.NewLog(st.env, st.sink, wal.Config{GroupBytes: groupBytes, GroupTimeout: groupTimeout})
		if !w.paged {
			st.eng = db.New(st.env, st.log)
			tpcc.Load(st.eng, st.tcfg, populationSeed)
			return
		}
		scratch := int64(hostMemBytes) - btree.DeviceScratchSize(st.prim().BlockSize())
		st.store = &timedStore{inner: btree.NewDeviceStore(st.prim(), st.slotBase, st.slots, scratch), tr: tr}
		pager := btree.NewPager(st.store, btree.Config{PoolPages: st.pool, Scope: obs.For(st.env).Scope("tpccbench/pager")})
		st.store.pager = pager
		st.eng = db.NewPaged(st.env, st.log, pager)
		st.mgr = ckpt.NewManager(st.eng, st.log, ckpt.Config{Scope: obs.For(st.env).Scope("tpccbench/ckpt")})
		// Precondition the array (see pagedLogPages) and load. The bulk
		// load leaves every page dirty, and the pool never evicts a dirty
		// page: one checkpoint writes the dataset out so the pool can
		// shrink to its cap.
		if bootErr = precondition(p, st.store.inner, st.slots); bootErr != nil {
			return
		}
		if bootErr = loadSorted(st.eng, st.tcfg); bootErr != nil {
			return
		}
		_, bootErr = st.mgr.RunOnce(p)
	})
	if err := st.runUntil("boot", func() bool { return booted }); err != nil {
		st.close()
		return nil, err
	}
	if bootErr != nil {
		st.close()
		return nil, fmt.Errorf("boot: %w", bootErr)
	}
	st.group.Parallelize()

	for i := 0; i < terminals; i++ {
		t := &terminal{
			id:      i,
			client:  tpcc.NewClient(st.eng, st.tcfg, seed*1000+int64(i)+1, i%st.tcfg.Warehouses+1),
			rng:     rand.New(rand.NewSource(seed*1000 + int64(i) + 501)),
			arrived: st.env.NewSignal(),
			retired: st.env.NewSignal(),
		}
		st.terms = append(st.terms, t)
		st.env.Go(fmt.Sprintf("tpccbench-term-%d", i), func(p *sim.Proc) { st.runTerminal(p, t) })
		st.env.Go(fmt.Sprintf("tpccbench-track-%d", i), func(p *sim.Proc) { st.runTracker(p, t) })
	}
	if w.paged {
		st.env.Go("tpccbench-ckpt", st.runCheckpoints)
	} else {
		st.ckptDone = true
	}
	if w.devices > 1 {
		// Peer lag builds up inside a sink write, where the sink's own
		// samples cannot see it; sample the primary's view of its peers.
		st.env.Go("tpccbench-lag", func(p *sim.Proc) {
			for !st.stop {
				st.sink.sample()
				p.Sleep(lagSamplePeriod)
			}
		})
	}
	return st, nil
}

// precondition writes every slot of store preconditionPasses times, in
// batches.
func precondition(p *sim.Proc, store btree.PageStore, slots int64) error {
	const batch = 64
	page := make([]byte, store.PageSize())
	ids := make([]int64, 0, batch)
	images := make([][]byte, 0, batch)
	for pass := 0; pass < preconditionPasses; pass++ {
		for s := int64(0); s < slots; s++ {
			ids, images = append(ids, s), append(images, page)
			if len(ids) == batch || s == slots-1 {
				if err := store.WriteBatch(p, ids, images); err != nil {
					return fmt.Errorf("precondition: %w", err)
				}
				ids, images = ids[:0], images[:0]
			}
		}
	}
	return nil
}

// datasetPages counts the pages the loaded database occupies, by loading
// it into a memory-backed pager: the paged workload's pool is a share of
// it. The load spends no virtual time.
func datasetPages(cfg tpcc.Config, pageSize int) (int, error) {
	pg := btree.NewPager(btree.NewMemStore(pageSize, 1<<30), btree.Config{})
	if err := loadSorted(db.NewPaged(sim.NewEnv(populationSeed), nil, pg), cfg); err != nil {
		return 0, err
	}
	return pg.Resident(), nil
}

// loadSorted bulk-loads the TPC-C database into a paged engine in key
// order. tpcc.Load inserts each district's customer-name index by ranging
// over a Go map, so its insertion order, and with it the B+tree's page
// splits, changes from run to run although the rows do not. Loading the
// rows from a row-map engine in sorted order per table gives every run
// the same tree. The key list mirrors tpcc.Load's schema; a row count per
// table proves it complete.
func loadSorted(eng *db.Engine, cfg tpcc.Config) error {
	src := db.New(sim.NewEnv(populationSeed), nil)
	tpcc.Load(src, cfg, populationSeed)
	keys := map[string][]string{}
	add := func(table, key string) { keys[table] = append(keys[table], key) }
	for i := 1; i <= cfg.Items; i++ {
		add(tpcc.TItem, tpcc.IKey(i))
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		add(tpcc.TWarehouse, tpcc.WKey(w))
		for i := 1; i <= cfg.Items; i++ {
			add(tpcc.TStock, tpcc.SKey(w, i))
		}
		for d := 1; d <= cfg.Districts; d++ {
			add(tpcc.TDistrict, tpcc.DKey(w, d))
			names := map[string]bool{}
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				add(tpcc.TCustomer, tpcc.CKey(w, d, c))
				cust, ok := src.Read(tpcc.TCustomer, tpcc.CKey(w, d, c))
				if !ok {
					return fmt.Errorf("load: customer %d/%d/%d missing", w, d, c)
				}
				if last := tpcc.DecodeCustomer(cust).Last; !names[last] {
					names[last] = true
					add(tpcc.TCustIdx, tpcc.CIdxKey(w, d, last))
				}
			}
		}
	}
	for _, table := range src.Tables() {
		eng.CreateTable(table)
		ks := keys[table]
		if n := src.RowCount(table); n != len(ks) {
			return fmt.Errorf("load: table %s has %d rows, the sorted loader knows %d keys", table, n, len(ks))
		}
		sort.Strings(ks)
		for _, k := range ks {
			v, ok := src.Read(table, k)
			if !ok {
				return fmt.Errorf("load: %s row %q missing", table, k)
			}
			eng.LoadRow(table, k, v)
		}
	}
	return nil
}

func (t *terminal) takeSlot() int {
	for i, used := range t.slots {
		if !used {
			t.slots[i] = true
			return i
		}
	}
	return len(t.slots) - 1
}

// think draws the terminal's next think time.
func (t *terminal) think() time.Duration {
	return time.Duration(math.Min(t.rng.ExpFloat64(), thinkCap) * float64(thinkMean))
}

// runTerminal is the closed loop of one terminal.
func (st *stack) runTerminal(p *sim.Proc, t *terminal) {
	defer func() {
		t.done = true
		t.arrived.Broadcast()
	}()
	for !st.stop {
		p.WaitFor(t.retired, func() bool { return len(t.pending) < pipeDepth || st.stop })
		if st.stop {
			return
		}
		p.Sleep(t.think())
		e := pending{start: p.Now(), span: -1, slot: -1}
		track := trackStore
		var txn int64
		if st.tr != nil {
			st.txnSeq++
			txn = st.txnSeq
			e.slot = t.takeSlot()
			track = trackTermBase + t.id*trackTermSlots + e.slot
			e.span = st.tr.add(span{name: "txn", track: track, iv: interval{e.start, e.start}, parent: -1, txn: txn})
		}
		ex := st.tr.begin(p, span{name: "tpcc.exec", track: track, iv: interval{e.start, e.start}, parent: e.span, txn: txn})
		lsn, err := t.client.RunMixAsync(p)
		e.execEnd = p.Now()
		st.tr.end(p, ex, e.execEnd)
		st.attempts++
		if err != nil {
			st.fails++
			st.finish(t, e, e.execEnd, false)
			continue
		}
		e.lsn = lsn
		if lsn == 0 || lsn <= st.log.DurableLSN() {
			st.finish(t, e, e.execEnd, true)
			continue
		}
		t.pending = append(t.pending, e)
		t.arrived.Broadcast()
	}
}

// runTracker retires a terminal's commits at the instant the log becomes
// durable past each one's LSN (the Fig 9 latency tracker, per terminal
// so LSNs arrive in order).
func (st *stack) runTracker(p *sim.Proc, t *terminal) {
	defer func() { t.tracked = true }()
	for {
		if len(t.pending) == 0 {
			if t.done {
				return
			}
			p.Wait(t.arrived)
			continue
		}
		st.log.WaitDurable(p, t.pending[0].lsn)
		for len(t.pending) > 0 && t.pending[0].lsn <= st.log.DurableLSN() {
			st.finish(t, t.pending[0], p.Now(), true)
			t.pending = t.pending[1:]
		}
		t.retired.Broadcast()
	}
}

// finish records a transaction's end and closes its spans.
func (st *stack) finish(t *terminal, e pending, end time.Duration, ok bool) {
	if ok {
		st.commits = append(st.commits, commitRec{interval{e.start, end}, e.lsn})
	}
	if st.tr == nil {
		return
	}
	st.tr.spans[e.span].iv.end = end
	if ok && e.lsn > 0 {
		track := st.tr.spans[e.span].track
		txn := st.tr.spans[e.span].txn
		gw := st.tr.add(span{name: "wal.group_wait", track: track, iv: interval{e.execEnd, end}, parent: e.span, txn: txn})
		if w, found := st.sink.writeFor(e.lsn); found {
			st.tr.add(span{name: "villars.sink_write", track: track, iv: w.interval, parent: gw, txn: txn})
		}
	}
	t.slots[e.slot] = false
}

// runCheckpoints is the paged workload's checkpoint loop, timing every
// ckpt.Manager.RunOnce.
func (st *stack) runCheckpoints(p *sim.Proc) {
	defer func() { st.ckptDone = true }()
	pages := obs.For(st.env).Counter("tpccbench/ckpt/pages_written")
	for {
		p.Sleep(ckptInterval)
		if st.ckptStop {
			return
		}
		before := pages.Value()
		start := p.Now()
		sp := st.tr.begin(p, span{name: "ckpt.run", track: trackCkpt, iv: interval{start, start}, parent: -1})
		ok, err := st.mgr.RunOnce(p)
		st.tr.end(p, sp, p.Now())
		st.ckpts = append(st.ckpts, ckptRec{interval: interval{start, p.Now()}, ok: ok, pages: pages.Value() - before, err: err})
	}
}

// drain stops the load and runs until every transaction has retired and
// the log is fully durable. On the paged workload it first stops the
// checkpoint loop and takes one last checkpoint, after which the
// terminals commit crashTail more transactions, so every crash leaves
// recovery a tail of about the same length to replay.
func (st *stack) drain() error {
	if st.w.paged {
		st.ckptStop = true
		if err := st.runUntil("checkpoint loop", func() bool { return st.ckptDone }); err != nil {
			return err
		}
		if err := st.onMember(st.env, "final-checkpoint", func(p *sim.Proc) error {
			if _, err := st.mgr.RunOnce(p); err != nil {
				return fmt.Errorf("final checkpoint: %w", err)
			}
			return nil
		}); err != nil {
			return err
		}
		tail := len(st.commits) + crashTail
		if err := st.runUntil("tail", func() bool { return len(st.commits) >= tail }); err != nil {
			return err
		}
	}
	st.stop = true
	for _, t := range st.terms {
		t.retired.Broadcast()
	}
	return st.runUntil("drain", func() bool {
		for _, t := range st.terms {
			if !t.done || !t.tracked {
				return false
			}
		}
		return st.ckptDone && st.log.Backlog() == 0
	})
}

// settleFlash runs until no device's flash array has done any work for
// quietPeriod.
func (st *stack) settleFlash() error {
	ops := func() (n int64) {
		for _, d := range st.devs {
			r, p, e := d.Array().Stats()
			n += r + p + e
		}
		return n
	}
	limit := st.now() + drainLimit
	for last := ops(); ; {
		st.runTo(st.now() + quietPeriod)
		cur := ops()
		if cur == last {
			return nil
		}
		if st.now() >= limit {
			return fmt.Errorf("flash still busy after %v of virtual time", drainLimit)
		}
		last = cur
	}
}

// onMember runs fn as a process on env and drives the group until it
// returns.
func (st *stack) onMember(env *sim.Env, what string, fn func(p *sim.Proc) error) error {
	var err error
	done := false
	env.Go("tpccbench-"+what, func(p *sim.Proc) {
		err = fn(p)
		done = true
	})
	if werr := st.runUntil(what, func() bool { return done }); werr != nil {
		return werr
	}
	return err
}

// recovery is the outcome of crashing the log device and rebuilding the
// engine from what survived on flash.
type recovery struct {
	dur       time.Duration // crash to recovered engine
	tailRecs  int
	totalRecs int
	pageReads int
	streamOK  bool
	foundCkpt bool
}

// check runs the workload's correctness gate after the window: the log
// is drained, secondaries (if any) must hold the primary's exact stream,
// and a crash of the log device must recover to the live engine's
// fingerprint. It returns the recovery measurement and every problem
// found.
func (st *stack) check() (recovery, []string, error) {
	var rec recovery
	var problems []string
	if err := st.drain(); err != nil {
		return rec, nil, err
	}
	stream := st.sink.stream

	// Every device destages the whole stream before the crash, so each
	// durable prefix can be read back from flash and compared.
	if err := st.runUntil("destage", func() bool {
		for _, d := range st.devs {
			if d.Destage().DestagedStream() != stream.n {
				return false
			}
		}
		return true
	}); err != nil {
		return rec, nil, err
	}
	for _, sec := range st.devs[1:] {
		sec := sec
		var got []byte
		if err := st.onMember(sec.Env(), "read-"+sec.Name(), func(p *sim.Proc) (err error) {
			got, err = readLog(p, sec)
			return err
		}); err != nil {
			problems = append(problems, fmt.Sprintf("secondary %s: %v", sec.Name(), err))
			continue
		}
		if digest(got) != stream {
			problems = append(problems, fmt.Sprintf("secondary %s: durable prefix (%d bytes) differs from the primary's stream (%d bytes)", sec.Name(), len(got), stream.n))
		}
	}

	var liveFP uint64
	if st.w.paged {
		if err := st.onMember(st.env, "live-fingerprint", func(p *sim.Proc) error {
			liveFP = st.eng.FingerprintIn(p)
			return nil
		}); err != nil {
			return rec, nil, err
		}
	} else {
		liveFP = st.eng.Fingerprint()
	}

	// The crash hits a quiet device: garbage collection the run left
	// behind finishes first, so recovery_ms times the recovery path rather
	// than whatever background work the crash happened to interrupt.
	if err := st.settleFlash(); err != nil {
		return rec, nil, err
	}
	prim := st.prim()
	var recFP uint64
	var recErr error
	err := st.onMember(st.env, "recover", func(p *sim.Proc) error {
		crash := p.Now()
		root := st.tr.begin(p, span{name: "recovery", track: trackRecovery, iv: interval{crash, crash}, parent: -1})
		prim.InjectPowerLoss()
		for !prim.Drained() {
			p.Sleep(time.Microsecond)
		}
		t0 := p.Now()
		st.tr.add(span{name: "villars.drain", track: trackRecovery, iv: interval{crash, t0}, parent: root})
		got, err := readLog(p, prim)
		t1 := p.Now()
		st.tr.add(span{name: "nand.log_read", track: trackRecovery, iv: interval{t0, t1}, parent: root})
		if err != nil {
			recErr = err
			return nil
		}
		rec.streamOK = digest(got) == stream
		records := wal.DecodeAll(got)
		replay := "db.replay"
		if st.w.paged {
			replay = "ckpt.recover"
		}
		rp := st.tr.begin(p, span{name: replay, track: trackRecovery, iv: interval{t1, t1}, parent: root})
		var eng *db.Engine
		if st.w.paged {
			store := &timedStore{inner: &ftlStore{dev: prim, base: st.slotBase, slots: st.slots}, tr: st.tr}
			var loadErr error
			load := func(e *db.Engine) { loadErr = loadSorted(e, st.tcfg) }
			var stats ckpt.Stats
			eng, stats, err = ckpt.Recover(p, st.env, store, st.pool, records, load)
			if err == nil {
				err = loadErr
			}
			rec.tailRecs, rec.totalRecs, rec.foundCkpt = stats.Tail, stats.Total, stats.Found
			rec.pageReads = len(store.reads)
		} else {
			eng = db.New(st.env, nil)
			tpcc.Load(eng, st.tcfg, populationSeed)
			err = eng.Recover(records)
			for _, r := range records {
				if !db.IsControlPayload(r.Payload) {
					rec.totalRecs++
				}
			}
			rec.tailRecs = rec.totalRecs
		}
		rec.dur = p.Now() - crash
		st.tr.end(p, rp, p.Now())
		st.tr.end(p, root, p.Now())
		if err != nil {
			recErr = err
			return nil
		}
		// The fingerprint walk reads every page; it is the check, not
		// part of recovery, so it runs after the clock stopped.
		recFP = eng.FingerprintIn(p)
		return nil
	})
	if err != nil {
		return rec, nil, err
	}
	if recErr != nil {
		problems = append(problems, fmt.Sprintf("recovery: %v", recErr))
		return rec, problems, nil
	}
	if !rec.streamOK {
		problems = append(problems, "recovery: the log read back from flash differs from the stream the host wrote")
	}
	if recFP != liveFP {
		problems = append(problems, fmt.Sprintf("recovery: recovered fingerprint %016x != live engine %016x", recFP, liveFP))
	}
	if st.w.paged && !rec.foundCkpt {
		problems = append(problems, "recovery: no complete checkpoint on the durable log")
	}
	return rec, problems, nil
}
