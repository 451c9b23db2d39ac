package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/live"
)

// sample is one finished operation: when it ended (ns since the run's
// start), how long it took (open loop: since it was due) and the payload
// bytes it moved. failed operations carry no latency.
type sample struct {
	end, lat int64
	bytes    int64
	failed   bool
}

// snapshot is the process-wide resource reading at one slice boundary.
type snapshot struct {
	at         int64 // ns since the run's start
	cpu        int64 // user+sys ns, getrusage(RUSAGE_SELF)
	mallocs    uint64
	totalAlloc uint64
}

func takeSnapshot(start time.Time) snapshot {
	var ru syscall.Rusage
	// RUSAGE_SELF on the calling process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:         int64(time.Since(start)),
		cpu:        ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
	}
}

// procIO is the process's write-syscall and written-byte counters from
// /proc/self/io. Cluster, services and driver share the process and all
// traffic is loopback TCP, so the deltas are every write(2)/writev(2)
// the transport issued and every byte it put on the wire — both
// directions, every session's heartbeats included — without wrapping a
// connection (a wrapped net.Conn turns each vectored write into one write
// per segment and would change the number being measured).
type procIO struct{ syscw, wchar int64 }

// readProcIO reads the counters. Where /proc/self/io is missing or
// unreadable (not Linux, a kernel without task I/O accounting, gVisor) it
// reads zeros: the wire_bytes and write_syscalls metrics then report 0,
// meaning not measured, and every other metric is unaffected.
func readProcIO() (io procIO, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{}, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseInt(v, 10, 64)
		switch k {
		case "syscw":
			io.syscw = n
		case "wchar":
			io.wchar = n
		}
	}
	return io, true
}

// warmHeap collects what set-up left behind, then touches every page the
// heap may grow into before the next collection. The shard pools live on
// the Go heap, so the collector's goal sits hundreds of megabytes above
// the live heap and a measured window can be shorter than one GC cycle:
// without this, every allocation in the window is a first-touch page
// fault until the first collection and none after it, and which part of
// the window that is differs from run to run. A long-running process is
// always in the second state.
func warmHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	room := int64(ms.NextGC) - int64(ms.HeapAlloc)
	old := debug.SetGCPercent(-1) // no collection while the room is held
	const chunk = 4 << 20
	var hold [][]byte
	for ; room > 0; room -= chunk {
		b := make([]byte, chunk)
		for i := 0; i < len(b); i += 4096 {
			b[i] = 1
		}
		hold = append(hold, b)
	}
	hold = nil
	debug.SetGCPercent(old)
	runtime.GC()
}

// loadResult is what one warm-up + measured window produced.
type loadResult struct {
	start    time.Time
	samples  []sample   // every worker's, unsorted
	snaps    []snapshot // slice boundaries, first = start of the window
	drops    int64      // open-loop arrivals refused in the window
	offered  int64      // open-loop arrivals due in the window
	genLag   []int64    // open-loop: dispatch time minus due time, ns
	before   counters
	after    counters
	ioBefore procIO
	ioAfter  procIO
	firstErr error
}

type arrival struct {
	due int64
	op  op
}

// drive runs dos against d for warm+measure and returns the window's
// samples. Closed loop: each worker issues its own stream back to back.
// Open loop: one dispatcher walks a precomputed schedule and hands each
// arrival to a free worker through a bounded queue.
func drive(d *deployment, dos []opFunc, seed uint64, warm, measure time.Duration) *loadResult {
	wl, tr := d.wl, d.tr
	res := &loadResult{}
	slices := max(3, int(measure.Seconds()))
	perWorker := make([][]sample, len(dos))
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { res.firstErr = err }) }

	warmHeap()
	start := time.Now()
	res.start = start
	warmEnd := int64(warm)
	end := int64(warm + measure)

	runOp := func(w int, o op) (int64, error) {
		id := tr.reserve()
		t0 := tr.now()
		n, err := dos[w](o, id)
		tr.finish(id, spanOp, w, t0)
		if err != nil {
			fail(fmt.Errorf("%s: %w", wl.name, err))
		}
		return n, err
	}

	var wg sync.WaitGroup
	var drops atomic.Int64
	if wl.rate == 0 {
		for w := range dos {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st := newOpStream(wl, seed, w)
				// Sized for the fastest workload so appends do not
				// allocate inside the window being measured.
				buf := make([]sample, 0, int((warm+measure).Seconds()*60e3))
				for {
					t0 := int64(time.Since(start))
					if t0 >= end {
						break
					}
					n, err := runOp(w, st.next())
					t1 := int64(time.Since(start))
					buf = append(buf, sample{end: t1, lat: t1 - t0, bytes: n, failed: err != nil})
				}
				perWorker[w] = buf
			}(w)
		}
	} else {
		due := schedule(seed, wl.rate, warm+measure)
		res.genLag = make([]int64, 0, len(due))
		queue := make(chan arrival, maxOutstanding) // the outstanding-arrivals bound
		for w := range dos {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]sample, 0, len(due))
				for a := range queue {
					n, err := runOp(w, a.op)
					t1 := int64(time.Since(start))
					buf = append(buf, sample{end: t1, lat: t1 - a.due, bytes: n, failed: err != nil})
				}
				perWorker[w] = buf
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(queue)
			st := newOpStream(wl, seed, 0)
			for _, at := range due {
				if wait := at - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				now := int64(time.Since(start))
				in := int64(at) >= warmEnd
				if in {
					res.offered++
					res.genLag = append(res.genLag, now-int64(at))
				}
				select {
				case queue <- arrival{due: int64(at), op: st.next()}:
				default:
					if in {
						drops.Add(1)
					}
				}
			}
		}()
	}

	// The coordinator reads the process counters at every slice
	// boundary; the boundaries are where it actually woke, not where it
	// meant to.
	for i := 0; i <= slices; i++ {
		at := warm + time.Duration(int64(measure)*int64(i)/int64(slices))
		time.Sleep(at - time.Since(start))
		if i == 0 {
			res.before = d.c.counters()
			res.ioBefore, _ = readProcIO()
		}
		res.snaps = append(res.snaps, takeSnapshot(start))
		if i == slices {
			res.after = d.c.counters()
			res.ioAfter, _ = readProcIO()
		}
	}
	wg.Wait()
	res.drops = drops.Load()
	for _, s := range perWorker {
		res.samples = append(res.samples, s...)
	}
	return res
}

// outcome is one workload run, reduced to its reported numbers.
type outcome struct {
	wl        *spec
	e2e       map[string]float64
	layer     map[string]float64 // counter deltas and tails from any run; span sums from a traced one
	attempted int64
	failed    int64
	problems  []string // anything that makes the run incorrect
	// shortfall is set when an open loop completed too little of its
	// offered load with nothing dropped or failed: the run is void
	// because the generator, not the system, was the bottleneck.
	shortfall string
}

func (o *outcome) problemf(format string, a ...any) {
	o.problems = append(o.problems, o.wl.name+": "+fmt.Sprintf(format, a...))
}

// opFunc runs one generated operation under span id opSpan (0 when
// untraced) and reports the payload bytes it moved.
type opFunc = func(o op, opSpan int64) (int64, error)

// setUp is everything setup_s covers: cluster launch, deployment and
// preload, and the workers' sessions and clients.
func setUp(wl *spec, seed uint64, in *payloadTable, tr *tracer) (*deployment, []opFunc, error) {
	d, err := deploy(wl, seed, in, tr)
	if err != nil {
		return nil, nil, err
	}
	dos := make([]opFunc, workers)
	for w := range dos {
		if dos[w], err = d.app.worker(w); err != nil {
			d.close()
			return nil, nil, fmt.Errorf("%s: worker %d: %w", wl.name, w, err)
		}
	}
	return d, dos, nil
}

// runWorkload sets wl up, drives it, then checks outputs, invariants and
// leaks. With timeSetup it sets up setupReps times and reports the
// median; the load runs on the last one. A non-empty traceDir makes it
// the traced pass and receives the span file.
func runWorkload(wl *spec, seed uint64, seconds float64, timeSetup bool, traceDir string) (*outcome, error) {
	warm, measure := window(seconds)
	out := &outcome{wl: wl, e2e: map[string]float64{}, layer: map[string]float64{}}
	leasedBase := live.LeasedBufs()
	in := newPayloadTable(wl.size)
	var tr *tracer
	if traceDir != "" {
		tr = newTracer(warm + measure)
	}

	var setups []float64
	var d *deployment
	var dos []opFunc
	for {
		t0 := time.Now()
		var err error
		if d, dos, err = setUp(wl, seed, in, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !timeSetup || len(setups) == setupReps {
			break
		}
		d.close()
		// Hand the discarded cluster's memory back now, so the runtime
		// does not spend the measured window scavenging it.
		debug.FreeOSMemory()
	}
	out.e2e["setup_s"] = median(setups)

	res := drive(d, dos, seed, warm, measure)
	out.reduce(res, measure)
	if tr != nil {
		if err := out.reduceTrace(tr, res, traceDir); err != nil {
			d.close()
			return nil, err
		}
	}

	// Outputs were verified per operation; now the system's own books.
	d.app.close()
	d.c.closeSessions()
	if err := d.c.checkInvariants(); err != nil {
		out.problemf("invariants: %v", err)
	}
	freeLeak := 0
	if wl.app == appKV {
		// Every kv write frees the ref it replaces, so the pool must be
		// back where the preload left it.
		freeLeak = d.preloadFree - d.c.freePages()
	}
	d.c.close()
	bufLeak := live.LeasedBufs() - leasedBase
	if freeLeak != 0 {
		out.problemf("%d pages not returned to the pool", freeLeak)
	}
	if bufLeak != 0 {
		out.problemf("%d leased buffers not released", bufLeak)
	}
	out.layer["live.server.free_pages_leaked"] = float64(freeLeak)
	out.layer["live.server.leased_bufs_leaked"] = float64(bufLeak)
	return out, nil
}

// reduce turns a window's samples and snapshots into the end-to-end
// metrics. Each is the median over the window's slices of the per-slice
// value, so one disturbed second on a shared host moves nothing.
func (o *outcome) reduce(res *loadResult, measure time.Duration) {
	from, to := res.snaps[0].at, res.snaps[len(res.snaps)-1].at
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].end < res.samples[j].end })
	var thr, good, p50, p90, cpu, allocs, allocKB []float64
	var all []int64
	i := sort.Search(len(res.samples), func(i int) bool { return res.samples[i].end >= from })
	for s := 1; s < len(res.snaps); s++ {
		a, b := res.snaps[s-1], res.snaps[s]
		var lats []int64
		var nbytes int64
		for ; i < len(res.samples) && res.samples[i].end < b.at; i++ {
			o.attempted++
			if sm := res.samples[i]; sm.failed {
				o.failed++
			} else {
				lats = append(lats, sm.lat)
				nbytes += sm.bytes
			}
		}
		if len(lats) == 0 {
			continue
		}
		sec := float64(b.at-a.at) / 1e9
		n := float64(len(lats))
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		thr = append(thr, n/sec)
		good = append(good, float64(nbytes)/1e6/sec)
		p50 = append(p50, float64(quantile(lats, 0.50))/1e3)
		p90 = append(p90, float64(quantile(lats, 0.90))/1e3)
		cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/n)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/n)
		allocKB = append(allocKB, float64(b.totalAlloc-a.totalAlloc)/1024/n)
		all = append(all, lats...)
	}
	o.attempted += res.drops
	o.failed += res.drops
	if len(all) == 0 {
		o.problemf("no operation completed in the window")
		return
	}
	o.e2e["throughput_ops_s"] = median(thr)
	o.e2e["goodput_mb_s"] = median(good)
	o.e2e["latency_p50_us"] = median(p50)
	o.e2e["latency_p90_us"] = median(p90)
	o.e2e["allocs_per_op"] = median(allocs)
	o.e2e["alloc_kb_per_op"] = median(allocKB)

	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	o.layer["driver.latency_p99_us"] = float64(quantile(all, 0.99)) / 1e3
	o.layer["driver.latency_p999_us"] = float64(quantile(all, 0.999)) / 1e3
	o.layer["driver.samples"] = float64(len(all))
	o.layer["driver.cpu_us_per_op"] = median(cpu)
	o.layer["driver.failed_frac"] = float64(o.failed) / float64(o.attempted)
	// The end-to-end rates are medians over the whole window; this is how
	// far its last third fell below its first, so a workload that slows as
	// it runs says so, and its medians are read as window-dependent.
	third := max(1, len(thr)/3)
	o.layer["driver.throughput_decay_frac"] = 1 - median(thr[len(thr)-third:])/median(thr[:third])
	o.layer["driver.gen_lag_p99_us"] = 0
	if len(res.genLag) > 0 {
		sort.Slice(res.genLag, func(i, j int) bool { return res.genLag[i] < res.genLag[j] })
		o.layer["driver.gen_lag_p99_us"] = float64(quantile(res.genLag, 0.99)) / 1e3
	}

	if res.firstErr != nil {
		o.problemf("%d of %d operations failed, first: %v", o.failed, o.attempted, res.firstErr)
	}
	if o.wl.rate > 0 {
		achieved := float64(len(all)) / (float64(to-from) / 1e9)
		offered := float64(res.offered) / measure.Seconds()
		if o.failed == 0 && achieved < minAchieved*offered {
			o.shortfall = fmt.Sprintf("%s: achieved %.0f ops/s of %.0f offered with no drops and no errors: the generator is the bottleneck", o.wl.name, achieved, offered)
		}
	}

	// Counter deltas over the same window, per completed operation.
	ops := float64(len(all))
	cl, ws := res.after.client, res.after.writes
	b := res.before
	o.layer["live.client.calls_per_op"] = float64(cl.Calls-b.client.Calls) / ops
	o.layer["live.client.retries"] = float64(cl.Retries - b.client.Retries)
	o.layer["live.client.timeouts"] = float64(cl.Timeouts - b.client.Timeouts)
	o.layer["live.client.failures"] = float64(cl.Failures - b.client.Failures)
	o.layer["live.node.frames_per_op"] = float64(ws.Frames-b.writes.Frames) / ops
	o.layer["live.node.group_commit_factor"] = ratio(float64(ws.CoalescedFrames-b.writes.CoalescedFrames), float64(ws.Batches-b.writes.Batches))
	o.layer["live.node.write_syscalls_per_op"] = float64(res.ioAfter.syscw-res.ioBefore.syscw) / ops
	o.layer["live.node.wire_bytes_per_op"] = float64(res.ioAfter.wchar-res.ioBefore.wchar) / ops
	o.layer["pool.failover_reads"] = float64(res.after.failover - b.failover)
	o.layer["pool.under_replicated"] = float64(res.after.underReplicated)
	hits, misses := float64(cl.CacheHits-b.client.CacheHits), float64(cl.CacheMisses-b.client.CacheMisses)
	o.layer["refcache.hit_rate"] = ratio(hits, hits+misses)
	o.layer["refcache.evictions_per_op"] = float64(cl.CacheEvictions-b.client.CacheEvictions) / ops
	o.layer["refcache.invalidations_per_op"] = float64(cl.CacheInvalidations-b.client.CacheInvalidations) / ops
}

// reduceTrace sums the window's spans per completed operation and
// writes the span file.
func (o *outcome) reduceTrace(tr *tracer, res *loadResult, dir string) error {
	spans := tr.recorded()
	if n := tr.dropped.Load(); n > 0 {
		o.problemf("span buffer full: %d spans dropped", n)
	}
	// Spans are on the tracer's clock, which started before the load's.
	off := int64(res.start.Sub(tr.base))
	t := summarize(spans, off+res.snaps[0].at, off+res.snaps[len(res.snaps)-1].at)
	perOp := func(ns int64) float64 { return ratio(float64(ns)/1e3, float64(t.ops)) }
	o.layer["apps.fill_verify_us_per_op"] = perOp(t.fillVerify)
	o.layer["pool.stage_us_per_op"] = perOp(t.stage)
	o.layer["pool.read_us_per_op"] = perOp(t.read)
	o.layer["pool.free_us_per_op"] = perOp(t.free)
	// What is left of an operation once the driver's own work and every
	// DM call under it are taken out is the RPC framework, its services
	// and the wire between them. The kv driver makes no RPC.
	o.layer["liverpc.call_us_per_op"] = 0
	if o.wl.app != appKV {
		o.layer["liverpc.call_us_per_op"] = perOp(t.opSelf)
	}
	path, err := writeTrace(dir, o.wl.name, spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans -> %s\n", o.wl.name, len(spans), path)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
