package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memento/internal/lb"
)

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, so one slow page-fault storm does not decide it.
const setupRepeats = 5

// lateLimit is how long after it was due a paced batch may be sent before
// its packets count as failed operations. Each 2D query allocates tens of MB,
// and the collector's stop-the-world phases behind such allocations stall the
// paced producer for 15-50 ms at a time on the build host, which also
// deschedules the whole process for 100 ms now and then; both show in
// bench.gen_late_ms_p90. The limit sits above them, so only a read plane
// that holds the ingest path for longer fails operations.
const lateLimit = 250 * time.Millisecond

// instance is one set-up workload: the input, the system and its ACL.
type instance struct {
	sp       *spec
	in       *input
	sys      system
	dev      *device // one of dev and flt is set
	flt      *fleet
	acl      *lb.ACL
	heapBase uint64 // HeapInuse just before the instance was built
	failed   int
}

func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// setUp is phase 1: generate the stream, build the instance and feed it the
// first W flood-free packets, settling at the control-tick cadence so a fleet
// never has more than one report per agent in flight.
func setUp(sp *spec, z sizing, seed uint64) (*instance, error) {
	in, err := makeInput(seed, sp.Window)
	if err != nil {
		return nil, err
	}
	it := &instance{sp: sp, in: in, heapBase: heapInuse()}
	if sp.Fleet {
		if it.flt, err = newFleet(sp, seed, z.Band); err != nil {
			return nil, err
		}
		it.sys, it.acl = it.flt, it.flt.acl
	} else {
		if it.dev, err = newDevice(sp, seed); err != nil {
			return nil, err
		}
		it.sys, it.acl = it.dev, it.dev.acl
	}
	every := sp.tickEvery()
	for i, p := range in.pkts[:sp.Window] {
		it.sys.observe(p)
		if (i+1)%every == 0 && !it.sys.settle() {
			it.failed++
		}
	}
	return it, nil
}

// steady is what one steady phase measured.
type steady struct {
	Packets uint64
	Ticks   int
	Failed  int           // failed ticks plus late paced packets
	Busy    time.Duration // producer time spent handing packets over
	Rates   []float64     // Mpkt/s per segment
	Query   latencies
	Enforce latencies
	LateMs  []float64 // paced generator lateness per batch
	ColdMs  []float64 // query time of the untimed warm-up ticks
	Elapsed time.Duration
}

func (s *steady) record(st tickStat, seg int) {
	s.Ticks++
	s.Failed += st.failed
	s.Query.add(st.query, seg)
	s.Enforce.add(st.enforce, seg)
}

func (s *steady) finish(seg *segmenter, start time.Time) {
	s.Elapsed = time.Since(start)
	for _, r := range seg.rates {
		s.Rates = append(s.Rates, r/1e6)
	}
}

// pool adds the measurements of another stretch of the same load to s.
func (s *steady) pool(o *steady) {
	s.Packets += o.Packets
	s.Ticks += o.Ticks
	s.Failed += o.Failed
	s.Busy += o.Busy
	s.Elapsed += o.Elapsed
	s.Rates = append(s.Rates, o.Rates...)
	s.LateMs = append(s.LateMs, o.LateMs...)
	s.ColdMs = append(s.ColdMs, o.ColdMs...)
	for _, l := range []struct{ dst, src *latencies }{{&s.Query, &o.Query}, {&s.Enforce, &o.Enforce}} {
		l.dst.ms = append(l.dst.ms, l.src.ms...)
		l.dst.seg = append(l.dst.seg, l.src.seg...)
	}
}

// runSteady applies the workload's load pattern for dur, looping the
// flood-mixed trace.
func (it *instance) runSteady(dur time.Duration, tr *tracer) *steady {
	switch {
	case it.sp.Fleet:
		return it.steadyFleet(dur, tr)
	case it.sp.PacedMpps > 0:
		return it.steadyPaced(dur, tr)
	default:
		return it.steadyFlatOut(dur, tr)
	}
}

// steadyFleet: one generator round-robins Agent.Observe; a quiesced control
// tick runs every K packets on the same goroutine. The rate is over the time
// spent observing, ticks excluded.
func (it *instance) steadyFleet(dur time.Duration, tr *tracer) *steady {
	s := &steady{}
	mixed, every, pos := it.in.mixed(), it.sp.tickEvery(), 0
	start := time.Now()
	seg := newSegmenter(start, dur)
	var idle time.Duration
	for id := 0; ; id++ {
		o := tr.begin("netwide.observe", -1, id)
		for j := 0; j < every; j++ {
			it.sys.observe(mixed[pos])
			if pos++; pos == len(mixed) {
				pos = 0
			}
		}
		tr.end(o)
		s.Packets += uint64(every)
		t1 := time.Now()
		st := it.sys.tick(tr, id)
		t2 := time.Now()
		idle += t2.Sub(t1)
		s.record(st, seg.segmentOf(t1))
		if seg.mark(t2, s.Packets, idle) {
			break
		}
	}
	s.finish(seg, start)
	s.Busy = s.Elapsed - idle
	return s
}

// produceChunk is how many packets a flat-out producer adds between looks at
// the stop flag and updates of the shared packet count.
const produceChunk = 4096

// warmTicks is how many untimed control ticks a flat-out workload runs before
// the timed ones each time its tick timer fires, and timedTicks how many timed
// ones follow. Between two firings the producers stream millions of packets
// through the caches, so the first tick runs cold: on the build host its p50
// was 1.9 to 2.1 ms where that of the ticks right behind it was 1.2 to 1.3 ms,
// and a p50 over a mix of the two moved with the share of each. The cold one
// is reported as shard.output_cold_ms.
const (
	warmTicks  = 1
	timedTicks = 2
)

// steadyFlatOut: Producers goroutines, each with its own PacketBatcher, add
// packets as fast as they can. The first of them also runs the timer-driven
// control ticks, between two chunks, and closes the segments, so the run never
// has more busy threads than producers. The ticks run quiesced, as in detect:
// the other producers are held at their next chunk boundary meanwhile, and the
// rate is over the time spent producing, so the cost of a tick stays out of
// ingest_mpps.
func (it *instance) steadyFlatOut(dur time.Duration, tr *tracer) *steady {
	d, sp := it.dev, it.sp
	s := &steady{}
	mixed := it.in.mixed()
	period := time.Second / time.Duration(sp.TickHz)
	var count atomic.Uint64
	var stop atomic.Bool
	var gate sync.RWMutex // shared: a producer's chunk; exclusive: the ticks
	var wg sync.WaitGroup
	start := time.Now()
	seg := newSegmenter(start, dur)
	var idle time.Duration
	for j := 0; j < sp.Producers; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := d.hhh.NewBatcher(sp.Batch)
			pos := j * len(mixed) / sp.Producers // out of phase with the others
			due := start.Add(period)
			for id := 0; !stop.Load(); {
				gate.RLock()
				for c := 0; c < produceChunk; c++ {
					b.Add(mixed[pos])
					if pos++; pos == len(mixed) {
						pos = 0
					}
				}
				gate.RUnlock()
				count.Add(produceChunk)
				if j != 0 {
					continue
				}
				t1 := time.Now()
				if t1.Before(due) {
					continue
				}
				gate.Lock()
				for k := 0; k < warmTicks+timedTicks; k, id = k+1, id+1 {
					st := d.controlTick(tr, id, false)
					if k < warmTicks {
						s.Ticks++
						s.Failed += st.failed
						s.ColdMs = append(s.ColdMs, float64(st.query.Nanoseconds())/1e6)
					} else {
						s.record(st, seg.segmentOf(t1))
					}
				}
				t2 := time.Now()
				idle += t2.Sub(t1)
				if seg.mark(t2, count.Load(), idle) {
					stop.Store(true)
				}
				gate.Unlock()
				for !due.After(t2) { // a stall skips firings, it does not bunch them
					due = due.Add(period)
				}
			}
			b.Flush()
		}()
	}
	wg.Wait()
	s.finish(seg, start)
	s.Packets = count.Load()
	s.Busy = (s.Elapsed - idle) * time.Duration(sp.Producers)
	d.sent += s.Packets
	return s
}

// steadyPaced: one producer sends a burst every millisecond at PacedMpps
// whether or not the instance keeps up (open loop); this goroutine queries
// back to back, every query a control tick.
func (it *instance) steadyPaced(dur time.Duration, tr *tracer) *steady {
	d, sp := it.dev, it.sp
	s := &steady{}
	mixed := it.in.mixed()
	const interval = time.Millisecond
	burst := int(sp.PacedMpps * 1e6 * interval.Seconds())
	var count atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	// The producer goroutine owns these until it is joined.
	var busy time.Duration
	var lateMs []float64
	var latePkts int
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := d.hhh.NewBatcher(sp.Batch)
		pos := 0
		for due := start; !stop.Load(); due = due.Add(interval) {
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			t := time.Now()
			late := t.Sub(due)
			for c := 0; c < burst; c++ {
				b.Add(mixed[pos])
				if pos++; pos == len(mixed) {
					pos = 0
				}
			}
			b.Flush()
			busy += time.Since(t)
			lateMs = append(lateMs, float64(late.Nanoseconds())/1e6)
			if late > lateLimit {
				latePkts += burst
			}
			count.Add(uint64(burst))
		}
	}()
	seg := newSegmenter(start, dur)
	for id := 0; ; id++ {
		t1 := time.Now()
		s.record(d.controlTick(tr, id, false), seg.segmentOf(t1))
		if seg.mark(time.Now(), count.Load(), 0) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	s.finish(seg, start)
	s.Packets, s.Busy, s.LateMs = count.Load(), busy, lateMs
	s.Failed += latePkts
	d.sent += s.Packets
	return s
}

// checkSamples reports a problem when a steady phase is too short for the
// quantiles it quotes.
func (s *steady) checkSamples(want int) []string {
	var problems []string
	for name, n := range map[string]int{"queries": len(s.Query.ms), "ticks": len(s.Enforce.ms)} {
		if n < want || !supported(n, 0.9) {
			problems = append(problems, fmt.Sprintf("only %d %s in steady, want at least %d and %d beyond the p90", n, name, want, minBeyond))
		}
	}
	return problems
}
