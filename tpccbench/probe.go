package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"xssd/internal/btree"
	"xssd/internal/sim"
	"xssd/internal/villars"
	"xssd/internal/wal"
)

// interval is one timed call in virtual time.
type interval struct {
	start, end time.Duration
}

func (iv interval) dur() time.Duration { return iv.end - iv.start }

// sinkWrite is one batch the log handed its sink.
type sinkWrite struct {
	interval
	end64 int64 // stream offset just past the batch
}

// timedSink wraps the log's wal.Sink. It times every batch write in
// virtual time, digests the host stream (the oracle the log read back
// from flash is compared against), and samples the primary's fast-side
// occupancy, peer lag and free-block pool at each write boundary.
type timedSink struct {
	inner  wal.Sink
	prim   *villars.Device
	tr     *tracer
	stream streamDigest
	writes []sinkWrite

	cmbLiveMax int64
	peerLagMax int64
	freeMin    int
}

func newTimedSink(inner wal.Sink, prim *villars.Device, tr *tracer) *timedSink {
	return &timedSink{inner: inner, prim: prim, tr: tr, freeMin: math.MaxInt}
}

// Write implements wal.Sink.
func (s *timedSink) Write(p *sim.Proc, data []byte) error {
	s.sample()
	start := p.Now()
	s.stream.add(data)
	err := s.inner.Write(p, data)
	w := sinkWrite{interval: interval{start, p.Now()}, end64: s.stream.n}
	s.writes = append(s.writes, w)
	s.tr.add(span{name: "villars.sink_write", track: trackSink, iv: w.interval, parent: -1})
	s.sample()
	return err
}

// Name implements wal.Sink.
func (s *timedSink) Name() string { return s.inner.Name() }

func (s *timedSink) sample() {
	if live := s.prim.CMB().Ring().Live(); live > s.cmbLiveMax {
		s.cmbLiveMax = live
	}
	if n := s.prim.FTL().FreeBlocks(); n < s.freeMin {
		s.freeMin = n
	}
	tr := s.prim.Transport()
	local := s.prim.CMB().Ring().Frontier()
	for i := 0; i < tr.Peers(); i++ {
		if lag := local - tr.Shadow(i); lag > s.peerLagMax {
			s.peerLagMax = lag
		}
	}
}

// writeFor returns the sink write whose batch carried the stream byte
// just below lsn: the write that made a record ending at lsn durable.
func (s *timedSink) writeFor(lsn int64) (sinkWrite, bool) {
	i := sort.Search(len(s.writes), func(i int) bool { return s.writes[i].end64 >= lsn })
	if i == len(s.writes) {
		return sinkWrite{}, false
	}
	return s.writes[i], true
}

// streamDigest is a log stream's length and FNV-1a digest: enough to
// compare a stream read back from flash with the one the host wrote,
// without the benchmark holding a copy of the log in its heap. h holds
// the FNV state XOR the offset basis, so the zero value digests the
// empty stream.
type streamDigest struct {
	n int64
	h uint64
}

func digest(b []byte) streamDigest {
	var d streamDigest
	d.add(b)
	return d
}

func (d *streamDigest) add(b []byte) {
	const offset, prime = 14695981039346656037, 1099511628211
	h := d.h ^ offset
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	d.h = h ^ offset
	d.n += int64(len(b))
}

// timedStore wraps a btree.PageStore and times every call in virtual
// time. Calls made on a process that has an open span (a terminal's
// transaction, the checkpoint loop, recovery) become that span's
// children in the trace.
type timedStore struct {
	inner btree.PageStore
	tr    *tracer
	pager *btree.Pager // set once the pager over this store exists

	reads, batches, syncs []interval
	residentMax           int
}

// PageSize implements btree.PageStore.
func (s *timedStore) PageSize() int { return s.inner.PageSize() }

// Slots implements btree.PageStore.
func (s *timedStore) Slots() int64 { return s.inner.Slots() }

// Read implements btree.PageStore.
func (s *timedStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	start := p.Now()
	err := s.inner.Read(p, slot, buf)
	s.done(p, &s.reads, "pagestore.read", start)
	return err
}

// Write implements btree.PageStore.
func (s *timedStore) Write(p *sim.Proc, slot int64, data []byte) error {
	start := p.Now()
	err := s.inner.Write(p, slot, data)
	s.done(p, &s.batches, "pagestore.write_batch", start)
	return err
}

// WriteBatch implements btree.PageStore.
func (s *timedStore) WriteBatch(p *sim.Proc, slots []int64, images [][]byte) error {
	start := p.Now()
	err := s.inner.WriteBatch(p, slots, images)
	s.done(p, &s.batches, "pagestore.write_batch", start)
	return err
}

// Sync implements btree.PageStore.
func (s *timedStore) Sync(p *sim.Proc) error {
	start := p.Now()
	err := s.inner.Sync(p)
	s.done(p, &s.syncs, "pagestore.sync", start)
	return err
}

func (s *timedStore) done(p *sim.Proc, calls *[]interval, name string, start time.Duration) {
	c := interval{start, p.Now()}
	s.tr.child(p, name, c)
	*calls = append(*calls, c)
	if s.pager != nil {
		if n := s.pager.Resident(); n > s.residentMax {
			s.residentMax = n
		}
	}
}

// ftlStore reads page slots straight through a device's FTL. Recovery
// uses it after the crash: the host interface died with the power, but
// the flash behind it is intact, exactly as a restarted host would find
// it. It is read-only.
type ftlStore struct {
	dev         *villars.Device
	base, slots int64
}

// PageSize implements btree.PageStore.
func (s *ftlStore) PageSize() int { return s.dev.BlockSize() }

// Slots implements btree.PageStore.
func (s *ftlStore) Slots() int64 { return s.slots }

// Read implements btree.PageStore.
func (s *ftlStore) Read(p *sim.Proc, slot int64, buf []byte) error {
	if slot < 0 || slot >= s.slots {
		return fmt.Errorf("%w: slot %d out of range %d", btree.ErrStore, slot, s.slots)
	}
	page, err := s.dev.FTL().Read(p, s.base+slot)
	if err != nil {
		return fmt.Errorf("%w: ftl read slot %d: %w", btree.ErrStore, slot, err)
	}
	copy(buf, page)
	return nil
}

// Write implements btree.PageStore.
func (s *ftlStore) Write(*sim.Proc, int64, []byte) error {
	return fmt.Errorf("%w: recovery store is read-only", btree.ErrStore)
}

// WriteBatch implements btree.PageStore.
func (s *ftlStore) WriteBatch(*sim.Proc, []int64, [][]byte) error {
	return fmt.Errorf("%w: recovery store is read-only", btree.ErrStore)
}

// Sync implements btree.PageStore.
func (s *ftlStore) Sync(*sim.Proc) error { return nil }

// readAhead is how many destage pages recovery keeps in flight while it
// reads the log back: one per die of the largest array the workloads use,
// so the read is bounded by flash parallelism rather than by one tR per
// page.
const readAhead = 16

// readLog reads the destage ring of d back through its FTL and
// reassembles the durable stream, failing on a gap or a malformed page.
// It must run on a process of d's own Env.
func readLog(p *sim.Proc, d *villars.Device) ([]byte, error) {
	base, count := d.Destage().LBARing()
	tail := d.Destage().TailLBA()
	if tail > count {
		return nil, fmt.Errorf("destage ring wrapped (%d pages, %d slots): the log no longer fits", tail, count)
	}
	pages := make([][]byte, tail)
	errs := make([]error, tail)
	left := 0
	done := p.Env().NewSignal()
	for w := 0; w < readAhead; w++ {
		w := w
		left++
		p.Env().Go("tpccbench-logread", func(rp *sim.Proc) {
			for slot := int64(w); slot < tail; slot += readAhead {
				pages[slot], errs[slot] = d.FTL().Read(rp, base+slot)
			}
			left--
			done.Broadcast()
		})
	}
	p.WaitFor(done, func() bool { return left == 0 })
	var out []byte
	for slot, page := range pages {
		if errs[slot] != nil {
			return nil, fmt.Errorf("read destage slot %d: %w", slot, errs[slot])
		}
		off, n, ok := villars.DecodePageHeader(page)
		if !ok {
			return nil, fmt.Errorf("destage slot %d is not a log page", slot)
		}
		if off != int64(len(out)) {
			return nil, fmt.Errorf("destage slot %d holds stream offset %d, want %d (gap)", slot, off, len(out))
		}
		out = append(out, page[villars.PageHeaderLen:villars.PageHeaderLen+n]...)
	}
	return out, nil
}

// tailGuard is the fewest samples that must lie beyond a reported tail
// percentile.
const tailGuard = 10

// quantile returns the exact q-quantile of sorted (nearest rank) and how
// many samples lie strictly beyond its rank.
func quantile(sorted []time.Duration, q float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

func sortDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
