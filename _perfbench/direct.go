package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/vipsim/vip/internal/experiments"
	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/vip"
)

// simulate runs one cell through the public library and returns its
// report bytes.
func simulate(c cell) ([]byte, error) {
	res, err := vip.Simulate(c.scenario())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteReportJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// simSeeds is how many seeds of its scenario a single-simulation
// workload runs. Each seed is simulated twice in a row, a miss and then
// a hit, so misses are sampled across the window rather than in one
// burst at its start; after the last seed the cycle repeats with hits
// only.
const simSeeds = 8

// simBench is a single-scenario workload on one goroutine: vip.Simulate
// over a few seeds of one scenario.
type simBench struct {
	base  cell
	seeds []cell
}

func newSimBench(base cell, o options) (bench, error) {
	b := &simBench{base: base}
	for i := 0; i < simSeeds; i++ {
		b.seeds = append(b.seeds, base.withSeed(splitmix(o.seed, uint64(i))))
	}
	// Warm-up: a short run of the same scenario on a seed the window
	// never uses, so code, heap and allocator caches are warm.
	warm := base.withSeed(splitmix(o.seed, 100))
	warm.dur = 20 * vip.Millisecond
	if _, err := simulate(warm); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *simBench) measure(until time.Time, t *tally, v *verifier) {
	n := len(b.seeds)
	for i := 0; time.Now().Before(until) || i < 2*n; i++ {
		c := b.seeds[(i/2)%n]
		t0 := time.Now()
		body, err := simulate(c)
		ns := float64(time.Since(t0).Nanoseconds())
		t.batch(ns)
		if err == nil {
			err = v.check(c.id(), body)
		}
		t.op(i%2 == 1 || i >= 2*n, ns, c.dur.Milliseconds(), err)
	}
}

func (b *simBench) reference() ([]cell, [][]byte, error) {
	c := b.base.withSeed(defaultSeed)
	body, err := simulate(c)
	return []cell{c}, [][]byte{body}, err
}

func (b *simBench) cells() []cell { return b.seeds }
func (b *simBench) close()        {}

// sweepDuration is the simulated length of each sweep cell.
const sweepDuration = 30 * vip.Millisecond

// sweepBench is the Fig 15-18 grid run through experiments.Run under
// parallel.Map, as RunModeSweep fans it out, with no result cache
// installed: every cell is simulated. Passes go in pairs on a fresh
// seed, a missing sweep then a repeat, so misses are sampled across
// the window.
type sweepBench struct {
	seed uint64
	grid []cell // the first pair's grid, which every run sweeps
}

func newSweepBench(o options) (bench, error) {
	b := &sweepBench{seed: o.seed, grid: sweepCells(sweepDuration, splitmix(o.seed, 0))}
	// Warm-up: the whole grid at a tenth of the duration on another
	// seed, which touches every design and app model once.
	warm := sweepCells(sweepDuration/10, splitmix(o.seed, 100))
	for _, out := range runCells(warm) {
		if out.err != nil {
			return nil, out.err
		}
	}
	return b, nil
}

type cellOut struct {
	body  []byte
	start time.Time
	ns    float64
	err   error
}

// runCells simulates every cell through experiments.Run on the
// parallel executor. A cell's failure is kept in its slot so the other
// cells still count.
func runCells(cells []cell) []cellOut {
	outs, _ := parallel.Map(len(cells), func(i int) (cellOut, error) {
		t0 := time.Now()
		rep, err := experiments.Run(cells[i].config())
		if err != nil {
			return cellOut{err: fmt.Errorf("%s: %w", cells[i].id(), err)}, nil
		}
		// WallSeconds is excluded from the report JSON, so a report
		// replayed from a result cache reads zero here.
		if rep.Sim.WallSeconds <= 0 {
			return cellOut{err: fmt.Errorf("%s: report was not simulated in this run", cells[i].id())}, nil
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return cellOut{err: fmt.Errorf("%s: %w", cells[i].id(), err)}, nil
		}
		return cellOut{body: buf.Bytes(), start: t0, ns: float64(time.Since(t0).Nanoseconds())}, nil
	})
	return outs
}

// simulateAll simulates every cell through vip.Simulate, one after
// another.
func simulateAll(cells []cell) []cellOut {
	outs := make([]cellOut, len(cells))
	for i, c := range cells {
		t0 := time.Now()
		body, err := simulate(c)
		outs[i] = cellOut{body: body, start: t0, ns: float64(time.Since(t0).Nanoseconds()), err: err}
	}
	return outs
}

func (b *sweepBench) measure(until time.Time, t *tally, v *verifier) {
	grid := b.grid
	for pass := 0; time.Now().Before(until) || pass < 2; pass++ {
		if pass > 0 && pass%2 == 0 {
			grid = sweepCells(sweepDuration, splitmix(b.seed, uint64(pass/2)))
		}
		t0 := time.Now()
		outs := runCells(grid)
		t.batch(float64(time.Since(t0).Nanoseconds()))
		for i, out := range outs {
			err := out.err
			if err == nil {
				err = v.check(grid[i].id(), out.body)
			}
			t.op(pass%2 == 1, out.ns, grid[i].dur.Milliseconds(), err)
		}
	}
}

func (b *sweepBench) reference() ([]cell, [][]byte, error) {
	cells := sweepCells(sweepDuration, defaultSeed)
	var bodies [][]byte
	for _, out := range runCells(cells) {
		if out.err != nil {
			return nil, nil, out.err
		}
		bodies = append(bodies, out.body)
	}
	return cells, bodies, nil
}

func (b *sweepBench) cells() []cell { return b.grid }
func (b *sweepBench) close()        {}
