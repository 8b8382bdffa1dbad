package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/vipsim/vip/internal/app"
	"github.com/vipsim/vip/internal/core"
	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
	catalog "github.com/vipsim/vip/internal/workload"
)

// hitRounds is how many times the traced serve pass repeats each cell
// after its first (missing) request.
const hitRounds = 5

// hashCalls is how many Scenario.Hash calls are timed per cell.
const hashCalls = 200

// layerStats are one rebuilt run's layer statistics, read from each
// layer's Stats() after the run.
type layerStats struct {
	rep       *core.Report
	bytes     int
	events    uint64
	pending   int
	nocQueue  int
	dur       sim.Time
	setupNS   float64
	runNS     float64
	encodeNS  float64
	totalNS   float64
	transfers uint64
	signals   uint64
	nocBytes  uint64
}

// expandApps resolves app and workload ids the way vip.Simulate does.
func expandApps(ids []string) ([]app.Spec, error) {
	var specs []app.Spec
	for _, id := range ids {
		if len(id) > 0 && id[0] == 'W' {
			w, err := catalog.ByID(id)
			if err != nil {
				return nil, err
			}
			ws, err := w.Resolve()
			if err != nil {
				return nil, err
			}
			specs = append(specs, ws...)
			continue
		}
		a, err := catalog.App(id)
		if err != nil {
			return nil, err
		}
		specs = append(specs, a)
	}
	return specs, nil
}

// rebuild runs one cell along the path vip.Simulate takes —
// platform.New, core.NewRunner, Run, WriteJSON — with a span around each
// call, and reads every layer's statistics from the platform afterwards.
func rebuild(tr *tracer, parent int, c cell) ([]byte, layerStats, error) {
	run := tr.newRun()
	root := tr.begin(run, parent, "core.rebuild", "core")
	defer tr.end(root)
	var st layerStats
	t0 := time.Now()
	specs, err := expandApps(c.apps)
	if err != nil {
		return nil, st, err
	}
	mode := modeOf(c.system)
	s := tr.begin(run, root, "platform.New", "platform")
	p := platform.New(platform.DefaultConfig(mode))
	tr.end(s)
	opts := core.DefaultOptions(mode)
	opts.Duration = c.dur
	opts.Seed = c.seed
	s = tr.begin(run, root, "core.NewRunner", "core")
	r, err := core.NewRunner(p, specs, opts)
	tr.end(s)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	s = tr.begin(run, root, "core.Runner.Run", "core")
	rep, err := r.Run()
	tr.end(s)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	var buf bytes.Buffer
	s = tr.begin(run, root, "core.Report.WriteJSON", "core")
	err = rep.WriteJSON(&buf)
	tr.end(s)
	if err != nil {
		return nil, st, err
	}
	t3 := time.Now()
	sa := p.SA.Stats()
	st = layerStats{
		rep:       rep,
		bytes:     buf.Len(),
		events:    p.Eng.Fired(),
		pending:   p.Eng.Pending(),
		nocQueue:  p.SA.QueueLen(),
		dur:       c.dur,
		setupNS:   float64(t1.Sub(t0).Nanoseconds()),
		runNS:     float64(t2.Sub(t1).Nanoseconds()),
		encodeNS:  float64(t3.Sub(t2).Nanoseconds()),
		totalNS:   float64(t3.Sub(t0).Nanoseconds()),
		transfers: sa.Transfers,
		signals:   sa.Signals,
		nocBytes:  sa.BytesMoved,
	}
	return buf.Bytes(), st, nil
}

// rebuildAll rebuilds every cell, on the parallel executor when the
// workload runs its cells there.
func rebuildAll(tr *tracer, parent int, cells []cell, workers int) ([][]byte, []layerStats, []error) {
	bodies := make([][]byte, len(cells))
	stats := make([]layerStats, len(cells))
	errs := make([]error, len(cells))
	one := func(i int) error {
		bodies[i], stats[i], errs[i] = rebuild(tr, parent, cells[i])
		return nil
	}
	if workers > 1 {
		_ = parallel.Do(len(cells), one)
	} else {
		for i := range cells {
			_ = one(i)
		}
	}
	return bodies, stats, errs
}

func runTraced(w workload, o options) (*result, error) {
	b, err := w.setup(o)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", w.name, err)
	}
	defer b.close()
	cells := b.cells()
	execute, workers, callName := simulateAll, 1, "vip.Simulate"
	if _, ok := b.(*sweepBench); ok {
		execute, workers, callName = runCells, o.nproc, "experiments.Run"
	}

	tr := newTracer()
	t := &tally{}
	v := newVerifier()
	r := newReport()

	// Passes: the workload's own cells through its own entry point
	// (untraced inside), then the same cells rebuilt with spans around
	// each layer call. The rebuilt reports must equal the entry point's.
	var (
		cellNS, busy, slowest []float64
		refNS, tracedNS       float64
		gc                    allocCounter
		refRuns               int
		first                 []layerStats
		setupNS, runNS, encNS []float64
	)
	until := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
		runtime.GC()
		passRun := tr.newRun()
		a0 := readAllocs()
		t0 := time.Now()
		outs := execute(cells)
		wall := time.Since(t0)
		gc = gc.plus(readAllocs().since(a0))
		ps := tr.add(passRun, 0, "pass "+callName, "experiments", t0, wall)
		var sumNS, maxNS float64
		for i, out := range outs {
			tr.add(tr.newRun(), ps, callName, "experiments", out.start, time.Duration(out.ns))
			err := out.err
			if err == nil {
				err = v.check(cells[i].id(), out.body)
			}
			t.op(pass > 0, out.ns, cells[i].dur.Milliseconds(), err)
			if err != nil {
				continue
			}
			cellNS = append(cellNS, out.ns)
			sumNS += out.ns
			maxNS = math.Max(maxNS, out.ns)
			refNS += out.ns
			refRuns++
		}
		busy = append(busy, sumNS/(float64(wall.Nanoseconds())*float64(workers)))
		slowest = append(slowest, maxNS/float64(wall.Nanoseconds()))

		rb := tr.begin(tr.newRun(), 0, "pass rebuilt", "core")
		bodies, stats, errs := rebuildAll(tr, rb, cells, workers)
		tr.end(rb)
		for i := range cells {
			err := errs[i]
			if err == nil {
				// Same id as the entry point's report: the verifier
				// demands identical bytes.
				err = v.check(cells[i].id(), bodies[i])
			}
			t.op(true, stats[i].totalNS, cells[i].dur.Milliseconds(), err)
			if err != nil {
				continue
			}
			tracedNS += stats[i].totalNS
			setupNS = append(setupNS, stats[i].setupNS)
			runNS = append(runNS, stats[i].runNS)
			encNS = append(encNS, stats[i].encodeNS)
		}
		if pass == 0 {
			first = stats
		}
	}
	if t.failed > 0 {
		return finishTraced(o, w, tr, r, t)
	}
	setLayerStats(r, first)
	r.set("core.setup_ms", median(setupNS)/1e6, "ms", len(setupNS))
	r.set("core.run_ms", median(runNS)/1e6, "ms", len(runNS))
	r.set("core.encode_ms", median(encNS)/1e6, "ms", len(encNS))
	r.set("experiments.cell_ms_p50", median(cellNS)/1e6, "ms", len(cellNS))
	r.set("experiments.cell_ms_max", maxOf(cellNS)/1e6, "ms", len(cellNS))
	r.set("parallel.busy_fraction", median(busy), "ratio", len(busy))
	r.set("parallel.slowest_cell_share", median(slowest), "ratio", len(slowest))
	r.set("gc.cycles_per_run", float64(gc.gcs)/float64(refRuns), "count", refRuns)
	r.set("gc.pause_ms_per_run", float64(gc.pauseNS)/1e6/float64(refRuns), "ms", refRuns)
	r.set("trace.overhead_pct", (tracedNS/refNS-1)*100, "%", refRuns)

	if err := servePass(tr, o, cells, t, v, r); err != nil {
		return nil, err
	}
	hashPass(tr, cells, r)
	runKernels(tr, kernelShape(modeOf(cells[0].system), first), r)

	counts := workCounts{}
	for _, st := range first {
		c := reportCounts(st.rep)
		c["noc.transfers"] = st.transfers
		c["noc.signals"] = st.signals
		counts.add(c)
	}
	t.check(checkRecorded(o.state, fmt.Sprintf("%s-seed%d-traced", w.name, o.seed), counts))
	return finishTraced(o, w, tr, r, t)
}

// finishTraced writes the span file, prints the self-time table and
// the result. With failed operations the per-layer metrics may be
// incomplete, so the run ends with an error instead.
func finishTraced(o options, w workload, tr *tracer, r *report, t *tally) (*result, error) {
	path := filepath.Join(o.state, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	tr.printSelfTimes()
	fmt.Printf("# spans written to %s\n", path)
	if t.failed > 0 {
		for _, e := range t.errs {
			fmt.Println("# FAILED:", e)
		}
		return nil, fmt.Errorf("%d of %d traced operations failed", t.failed, t.attempted)
	}
	return finish(o, r, t)
}

// setLayerStats sets the simulated per-run layer metrics: means over
// the workload's distinct cells.
func setLayerStats(r *report, stats []layerStats) {
	n := float64(len(stats))
	var events, frames, reqs, bytesMoved, hits, misses, waitNS float64
	var transfers, signals, nocBytes, ipFrames, ctx, stallMem, stallFlow, irq, instr, repBytes float64
	for _, st := range stats {
		rep := st.rep
		events += float64(st.events)
		frames += float64(rep.DisplayedFrames)
		reqs += float64(rep.Mem.Requests)
		bytesMoved += float64(rep.Mem.BytesMoved)
		hits += float64(rep.Mem.RowHits)
		misses += float64(rep.Mem.RowMisses)
		waitNS += float64(rep.Mem.TotalWait)
		transfers += float64(st.transfers)
		signals += float64(st.signals)
		nocBytes += float64(st.nocBytes)
		for _, ip := range rep.IPs {
			ipFrames += float64(ip.Stats.Frames)
			ctx += float64(ip.Stats.CtxSwitch)
			stallMem += ip.Stats.StallMem.Milliseconds()
			stallFlow += ip.Stats.StallFlow.Milliseconds()
		}
		irq += float64(rep.CPU.Interrupts)
		instr += float64(rep.CPU.Instructions)
		repBytes += float64(st.bytes)
	}
	k := len(stats)
	r.set("sim.events_per_run", events/n, "count", k)
	r.set("sim.events_per_frame", events/math.Max(frames, 1), "count", k)
	r.set("dram.requests_per_run", reqs/n, "count", k)
	r.set("dram.bytes_per_run", bytesMoved/n, "bytes", k)
	r.set("dram.row_hit_rate", hits/math.Max(hits+misses, 1), "ratio", k)
	r.set("dram.avg_latency_ns", waitNS/math.Max(reqs, 1), "ns", k)
	r.set("noc.transfers_per_run", transfers/n, "count", k)
	r.set("noc.signals_per_run", signals/n, "count", k)
	r.set("noc.bytes_per_run", nocBytes/n, "bytes", k)
	r.set("ipcore.frames_per_run", ipFrames/n, "count", k)
	r.set("ipcore.ctx_switches_per_run", ctx/n, "count", k)
	r.set("ipcore.stall_mem_ms", stallMem/n, "ms", k)
	r.set("ipcore.stall_flow_ms", stallFlow/n, "ms", k)
	r.set("cpu.interrupts_per_run", irq/n, "count", k)
	r.set("cpu.instructions_per_run", instr/n, "count", k)
	r.set("core.report_bytes", repBytes/n, "bytes", k)
}

// kernelShape derives the kernels' request sizes and queue depths from
// the workload's rebuilt runs.
func kernelShape(mode platform.Mode, stats []layerStats) kernelParams {
	var pending, nocQueue, reqs, memBytes, wait, dur, transfers, nocBytes, ipIn, ipFrames, active, tasks float64
	for _, st := range stats {
		rep := st.rep
		pending += float64(st.pending)
		nocQueue += float64(st.nocQueue)
		reqs += float64(rep.Mem.Requests)
		memBytes += float64(rep.Mem.BytesMoved)
		wait += float64(rep.Mem.TotalWait)
		dur += float64(st.dur)
		transfers += float64(st.transfers)
		nocBytes += float64(st.nocBytes)
		for _, ip := range rep.IPs {
			ipIn += float64(ip.Stats.BytesIn)
			ipFrames += float64(ip.Stats.Frames)
		}
		active += float64(rep.CPU.ActiveTime)
		tasks += float64(rep.CPU.Tasks)
	}
	n := float64(len(stats))
	clamp := func(x float64, lo, hi int) int {
		v := int(math.Round(x))
		return min(max(v, lo), hi)
	}
	ratio := func(a, b float64, fallback int) float64 {
		if b == 0 {
			return float64(fallback)
		}
		return a / b
	}
	return kernelParams{
		mode:       mode,
		eventDepth: clamp(pending/n, 1, 1<<16),
		dramBytes:  clamp(ratio(memBytes, reqs, 64), 64, 1<<10),
		// Little's law: requests in the memory system = total request
		// latency over simulated time.
		dramDepth:  clamp(wait/dur, 1, 512),
		nocBytes:   clamp(ratio(nocBytes, transfers, 1<<10), 1, 1<<20),
		nocDepth:   clamp(nocQueue/n+1, 1, 512),
		frameBytes: clamp(ratio(ipIn, ipFrames, 1<<16), 1<<10, 1<<20),
		cpuTask:    sim.Time(clamp(ratio(active, tasks, 5000), 1000, 1_000_000)),
	}
}

// servePass sends the workload's cells through an in-process vipserve:
// each cell once (a miss that simulates), then hitRounds more times
// (cache hits), from nproc clients. Stage times come from the public
// X-Vip-Stages header.
func servePass(tr *tracer, o options, cells []cell, t *tally, v *verifier, r *report) error {
	s, err := startServer(o.nproc, o.nproc)
	if err != nil {
		return err
	}
	defer s.close()
	var mu sync.Mutex
	var admit, cacheUS, queue, simulate []float64
	send := func(order []cell) {
		s.postAll(order, o.nproc, func(c cell, t0 time.Time, rp reply, err error) {
			if err == nil {
				err = v.check(c.id(), rp.body)
			}
			t.op(rp.cache == "hit", rp.ns, c.dur.Milliseconds(), err)
			if err != nil {
				return
			}
			run := tr.newRun()
			root := tr.add(run, 0, "POST /v1/sim", "serve", t0, time.Duration(rp.ns))
			// The header gives stage durations, not start times, so the
			// stage spans are laid end to end from the send time.
			at := t0
			for _, st := range []string{"admit", "cache", "queue", "simulate"} {
				if ms, ok := rp.stages[st]; ok {
					d := time.Duration(ms * 1e6)
					tr.add(run, root, "serve."+st, "serve", at, d)
					at = at.Add(d)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			admit = append(admit, rp.stages["admit"]*1e3)
			if rp.cache == "hit" {
				cacheUS = append(cacheUS, rp.stages["cache"]*1e3)
			} else {
				queue = append(queue, rp.stages["queue"])
				simulate = append(simulate, rp.stages["simulate"])
			}
		})
	}
	send(cells)
	var hits []cell
	for i := 0; i < hitRounds; i++ {
		hits = append(hits, cells...)
	}
	send(hits)
	h, m, err := s.cacheStats()
	if err != nil {
		return err
	}
	// The header carries microsecond resolution, so the sub-millisecond
	// stages (admit, cache, queue) are means: a median of such coarse
	// values would often read the same from run to run whatever the
	// code does.
	r.set("serve.stage_admit_us", mean(admit), "us", len(admit))
	r.set("serve.stage_cache_us", mean(cacheUS), "us", len(cacheUS))
	r.set("serve.stage_queue_ms", mean(queue), "ms", len(queue))
	r.set("serve.stage_simulate_ms", median(simulate), "ms", len(simulate))
	r.set("cache.hit_ratio", h/math.Max(h+m, 1), "ratio", int(h+m))
	return nil
}

// hashPass times vip.Scenario.Hash, the content address vipserve
// computes for every request, on each of the workload's cells.
func hashPass(tr *tracer, cells []cell, r *report) {
	var per []float64
	for _, c := range cells {
		sc := c.scenario()
		run := tr.newRun()
		s := tr.begin(run, 0, "vip.Scenario.Hash", "vip")
		t0 := time.Now()
		for i := 0; i < hashCalls; i++ {
			if _, err := sc.Hash(); err != nil {
				panic(err) // the cells are valid scenarios; the passes above ran them
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/hashCalls/1e3)
		tr.end(s)
	}
	r.set("vip.hash_us", median(per), "us", len(per)*hashCalls)
}
