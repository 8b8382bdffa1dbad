package main

import (
	"runtime"
	"time"

	"github.com/vipsim/vip/internal/cpu"
	"github.com/vipsim/vip/internal/dram"
	"github.com/vipsim/vip/internal/energy"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/noc"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/sim"
)

// Layer kernels: each drives one layer on a private instance through
// its constructor and one entry call, at the request size and queue
// depth the workload showed, and reports host time and heap allocations
// per operation. They isolate one layer's host cost the way a workload
// run cannot.

// kernelParams are the workload's shape as the kernels replay it.
type kernelParams struct {
	mode       platform.Mode
	eventDepth int      // pending events in the engine queue
	dramBytes  int      // mean DRAM request size
	dramDepth  int      // mean requests in the memory system
	nocBytes   int      // mean fabric transfer size
	nocDepth   int      // fabric transfers queued
	frameBytes int      // mean bytes an IP reads per frame
	cpuTask    sim.Time // mean CPU task length
}

type kernelResult struct {
	nsPerOp     float64
	allocsPerOp float64
}

// timeKernel runs fn (which performs ops operations) reps times and
// returns the median ns per operation and the allocations per
// operation of the median repetition.
func timeKernel(tr *tracer, name string, reps int, fn func() int) kernelResult {
	var ns, allocs []float64
	for i := 0; i < reps; i++ {
		run := tr.newRun()
		span := tr.begin(run, 0, name, "kernel")
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		ops := fn()
		el := time.Since(t0)
		runtime.ReadMemStats(&b)
		tr.end(span)
		ns = append(ns, float64(el.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(b.Mallocs-a.Mallocs)/float64(ops))
	}
	return kernelResult{nsPerOp: median(ns), allocsPerOp: median(allocs)}
}

// simKernel schedules and fires events on an engine that holds depth
// pending events, so each push and pop works on a heap of that size.
func simKernel(depth, n int) int {
	e := sim.NewEngine()
	noop := func() {}
	delays := make([]sim.Time, 1024)
	r := rand{s: 7}
	for i := range delays {
		delays[i] = sim.Time(1 + r.intn(10_000))
	}
	for i := 0; i < depth; i++ {
		e.After(delays[i%len(delays)], noop)
	}
	for i := 0; i < n; i++ {
		e.After(delays[i%len(delays)], noop)
		e.Step()
	}
	return n
}

// dramKernel keeps depth requests of the given size outstanding on a
// controller with the platform's memory timing, each completion
// submitting the next request of its stream, and counts completions.
func dramKernel(mode platform.Mode, size, depth, n int) int {
	eng := sim.NewEngine()
	c := dram.NewController(eng, platform.DefaultConfig(mode).DRAM, &energy.Account{})
	done, issued := 0, 0
	var submit func(stream int)
	next := make([]uint64, depth)
	for s := range next {
		next[s] = uint64(s) << 24 // one frame buffer per stream
	}
	submit = func(stream int) {
		issued++
		addr := next[stream]
		next[stream] += uint64(size)
		c.Submit(&dram.Request{Addr: addr, Bytes: size, OnDone: func() {
			done++
			if issued < n {
				submit(stream)
			}
		}})
	}
	for s := 0; s < depth && issued < n; s++ {
		submit(s)
	}
	for done < n && eng.Step() {
	}
	return done
}

// nocKernel keeps depth transfers of the given size queued on the
// System Agent fabric and counts deliveries.
func nocKernel(size, depth, n int) int {
	eng := sim.NewEngine()
	f := noc.NewFabric(eng, noc.DefaultConfig(), &energy.Account{})
	done, issued := 0, 0
	var onDone func()
	onDone = func() {
		done++
		if issued < n {
			issued++
			f.Transfer(size, onDone)
		}
	}
	for i := 0; i < depth && issued < n; i++ {
		issued++
		f.Transfer(size, onDone)
	}
	for done < n && eng.Step() {
	}
	return done
}

// ipcoreKernel feeds a 4-lane EDF core (the VIP configuration of the
// video decoder) over ideal memory, one job queued per lane, until about
// subframes sub-frames are processed, and returns the count. Ideal
// memory keeps DRAM timing out of the kernel.
func ipcoreKernel(frameBytes, subframes int) int {
	eng := sim.NewEngine()
	acct := &energy.Account{}
	pcfg := platform.DefaultConfig(platform.VIP)
	mcfg := pcfg.DRAM
	mcfg.Ideal = true
	sa := noc.NewFabric(eng, pcfg.NOC, acct)
	mem := dram.NewController(eng, mcfg, acct)
	prm := pcfg.IP[ipcore.VD]
	core := ipcore.NewCore(eng, ipcore.Config{
		Name:           "VD",
		Kind:           ipcore.VD,
		ThroughputBPS:  prm.ThroughputBPS,
		PerFrame:       prm.PerFrame,
		Lanes:          pcfg.VIPLanes,
		LaneBufBytes:   pcfg.LaneBufBytes,
		SubframeBytes:  pcfg.SubframeBytes,
		Policy:         pcfg.VIPPolicy,
		CtxSwitch:      pcfg.CtxSwitch,
		SwitchPatience: pcfg.SwitchPatience,
		MaxWrites:      8,
		Prefetch:       8,
		ActiveW:        prm.ActiveW,
		StallW:         prm.ActiveW * pcfg.StallPowerFrac,
		IdleW:          prm.ActiveW * pcfg.IdlePowerFrac,
	}, sa, mem, acct, energy.DefaultSRAM())
	perJob := (frameBytes + pcfg.SubframeBytes - 1) / pcfg.SubframeBytes
	jobs := max(subframes/perJob, pcfg.VIPLanes)
	period := sim.Time(16_666_667)
	done, issued := 0, 0
	var submit func(lane int)
	submit = func(lane int) {
		k := issued
		issued++
		j := &ipcore.Job{
			Label:      "kernel",
			FlowID:     lane,
			Frame:      k,
			InBytes:    frameBytes,
			OutBytes:   frameBytes,
			InFromDRAM: true,
			InAddr:     uint64(lane) << 28,
			OutToDRAM:  true,
			OutAddr:    uint64(lane)<<28 | 1<<27,
			Deadline:   eng.Now() + period + sim.Time(lane)*period/4,
		}
		j.OnDone = func() {
			done++
			if issued < jobs {
				submit(lane)
			}
		}
		if err := core.Submit(lane, j); err != nil {
			panic(err) // the job shape above is valid by construction
		}
	}
	for lane := 0; lane < pcfg.VIPLanes && issued < jobs; lane++ {
		submit(lane)
	}
	for done < jobs && eng.Step() {
	}
	return done * perJob
}

// cpuKernel alternates driver tasks and completion interrupts across
// the CPU complex, one outstanding per core, and counts retired tasks.
func cpuKernel(task sim.Time, n int) int {
	eng := sim.NewEngine()
	cx := cpu.New(eng, cpu.DefaultConfig(), &energy.Account{})
	done, issued := 0, 0
	var submit func(core int)
	submit = func(core int) {
		t := &cpu.Task{Label: "kernel", Duration: task, Instr: uint64(task), OnDone: func() {
			done++
			if issued < n {
				submit(core)
			}
		}}
		issued++
		if issued%2 == 0 {
			cx.Interrupt(core, t)
		} else {
			cx.Exec(core, t)
		}
	}
	for c := 0; c < cx.NumCores() && issued < n; c++ {
		submit(c)
	}
	for done < n && eng.Step() {
	}
	return done
}

// energyCategories are the twelve categories the platform charges.
var energyCategories = []energy.Category{
	energy.CPUActive, energy.CPUIdle, energy.CPUSleep, energy.CPUWake,
	energy.DRAMDynamic, energy.DRAMActivate, energy.DRAMBackground,
	energy.IPActive, energy.IPStall, energy.IPIdle, energy.FlowBuffer,
	energy.SystemAgent,
}

// energyKernel charges energy and power over the twelve categories and
// counts the charges.
func energyKernel(n int) int {
	var a energy.Account
	for i := 0; i < n/2; i++ {
		a.Add(energyCategories[i%12], 1e-9)
		a.AddPower(energyCategories[(i+5)%12], 0.25, 1000)
	}
	return n / 2 * 2
}

// runKernels times every layer kernel at the workload's shape.
func runKernels(tr *tracer, p kernelParams, r *report) {
	const reps = 3
	k := timeKernel(tr, "kernel.sim", reps, func() int { return simKernel(p.eventDepth, 2_000_000) })
	r.set("sim.kernel_ns_per_event", k.nsPerOp, "ns", reps)
	r.set("sim.kernel_allocs_per_event", k.allocsPerOp, "allocs", reps)
	k = timeKernel(tr, "kernel.dram", reps, func() int { return dramKernel(p.mode, p.dramBytes, p.dramDepth, 200_000) })
	r.set("dram.kernel_ns_per_request", k.nsPerOp, "ns", reps)
	k = timeKernel(tr, "kernel.noc", reps, func() int { return nocKernel(p.nocBytes, p.nocDepth, 400_000) })
	r.set("noc.kernel_ns_per_transfer", k.nsPerOp, "ns", reps)
	k = timeKernel(tr, "kernel.ipcore", reps, func() int { return ipcoreKernel(p.frameBytes, 200_000) })
	r.set("ipcore.kernel_ns_per_subframe", k.nsPerOp, "ns", reps)
	r.set("ipcore.kernel_allocs_per_subframe", k.allocsPerOp, "allocs", reps)
	k = timeKernel(tr, "kernel.cpu", reps, func() int { return cpuKernel(p.cpuTask, 300_000) })
	r.set("cpu.kernel_ns_per_task", k.nsPerOp, "ns", reps)
	k = timeKernel(tr, "kernel.energy", reps, func() int { return energyKernel(4_000_000) })
	r.set("energy.kernel_ns_per_add", k.nsPerOp, "ns", reps)
}
