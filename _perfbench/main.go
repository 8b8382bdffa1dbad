// Command perfbench is the repository's benchmark: how fast the
// simulator turns the paper's scenarios into reports on this host.
//
//	bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see metrics.json for why each exists):
//
//	baseline-4video  Baseline design, A5x4, 100 ms simulated, one goroutine
//	vip-w1           VIP design, W1, 100 ms simulated, one goroutine
//	paper-sweep      the Fig 15-18 grid (5 designs x 15 scenarios) at 30 ms
//	                 simulated, fanned over parallel.Map with nproc workers
//	serve-warm       in-process vipserve on loopback, nproc closed-loop
//	                 clients, a warm hot set plus 1 fresh scenario in 50
//
// With --trace 0 the run times the workload with no tracing and reports
// the end-to-end metrics; with --trace 1 it times each layer from the
// benchmark's own spans and kernels and reports the per-layer metrics.
// Every delivered report passes the correctness gate in check.go; the
// last line of standard output is one JSON object.
//
// The model reproduces the paper's trends and is not validated against
// its absolute numbers, so no accuracy figure is reported.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/vipsim/vip/internal/parallel"
	"github.com/vipsim/vip/vip"
)

// defaultSeed is vip.Scenario's default seed; stored digests are taken
// at it.
const defaultSeed = 1

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	state    string
	nproc    int
}

// bench is one workload, set up and ready to measure.
type bench interface {
	// measure runs operations until the deadline, and at least until
	// both misses and hits have been sampled, and tallies them.
	measure(until time.Time, t *tally, v *verifier)
	// reference simulates the workload's cells at the default seed and
	// returns them with their reports in order, for the stored digest.
	reference() ([]cell, [][]byte, error)
	// cells lists the distinct simulations the workload delivers.
	cells() []cell
	close()
}

type workload struct {
	name  string
	setup func(o options) (bench, error)
}

var workloads = []workload{
	{"baseline-4video", func(o options) (bench, error) {
		return newSimBench(cell{system: vip.SystemBaseline, apps: []string{"A5", "A5", "A5", "A5"}, dur: 100 * vip.Millisecond}, o)
	}},
	{"vip-w1", func(o options) (bench, error) {
		return newSimBench(cell{system: vip.SystemVIP, apps: []string{"W1"}, dur: 100 * vip.Millisecond}, o)
	}},
	{"paper-sweep", newSweepBench},
	{"serve-warm", newServeBench},
}

// tally accumulates the operations of one measured window. An operation
// delivers one report: a "miss" is the first time the run asks for a
// cell, a "hit" is a repeat of a cell already delivered.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	hitNS     []float64
	missNS    []float64
	batchNS   []float64
	simMS     float64
	results   int
}

func (t *tally) op(hit bool, ns float64, simMS float64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.fail(err)
		return
	}
	if hit {
		t.hitNS = append(t.hitNS, ns)
	} else {
		t.missNS = append(t.missNS, ns)
	}
	t.simMS += simMS
	t.results++
}

// fail records a failed operation; the caller holds t.mu.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

// check records a run-level check that is not itself a timed operation.
func (t *tally) check(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

func (t *tally) batch(ns float64) {
	t.mu.Lock()
	t.batchNS = append(t.batchNS, ns)
	t.mu.Unlock()
}

func (t *tally) sampled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.hitNS) > 0 && len(t.missNS) > 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects metrics with the sample count behind each.
type report struct {
	metrics map[string]metricValue
	samples map[string]int
}

func newReport() *report {
	return &report{metrics: make(map[string]metricValue), samples: make(map[string]int)}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	r.samples[name] = n
}

//go:embed metrics.json
var metricsDoc []byte

// declared maps the metric names metrics.json documents for a mode to
// their units, so the printed set and the documented set cannot drift
// apart.
func declared(trace bool) (map[string]string, error) {
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(metricsDoc, &doc); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	list := doc.EndToEnd
	if trace {
		list = doc.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}

func main() {
	var o options
	var traceFlag int
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&o.state, "state", ".bench_build/perfbench", "directory for recorded work counts and span files")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.nproc = runtime.GOMAXPROCS(0)
	parallel.SetJobs(o.nproc)

	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(names, ", "))
		os.Exit(2)
	}

	var (
		res *result
		err error
	)
	if o.trace {
		res, err = runTraced(*w, o)
	} else {
		res, err = runUntraced(*w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finish checks the metric set against metrics.json, prints the
// human-readable table and assembles the result.
func finish(o options, r *report, t *tally) (*result, error) {
	want, err := declared(o.trace)
	if err != nil {
		return nil, err
	}
	for name, m := range r.metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return nil, fmt.Errorf("metric %s (%s) is not documented in metrics.json", name, m.Unit)
		}
	}
	for name := range want {
		if _, ok := r.metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s documented in metrics.json was not measured", name)
		}
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer"
	}
	fmt.Printf("# %s seed=%d %s nproc=%d engine=%s\n", o.workload, o.seed, mode, o.nproc, vip.EngineVersion)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Printf("%-34s %16.6g %-10s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	fmt.Printf("# operations attempted=%d failed=%d\n", t.attempted, t.failed)
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   r.metrics,
	}, nil
}

// setUp sets the workload up setupRepeats times, keeping the last, and
// returns it with the set-up times.
func setUp(w workload, o options) (bench, []float64, error) {
	var b bench
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		nb, err := w.setup(o)
		if err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		b = nb
	}
	return b, secs, nil
}

// checkReference simulates the workload at the default seed, passes its
// reports through the verifier and compares their digest with the one
// stored for the current engine version. It returns the reference cells.
func checkReference(w workload, b bench, v *verifier, t *tally) []cell {
	cells, bodies, err := b.reference()
	if err == nil {
		for i, body := range bodies {
			if err = v.check(cells[i].id(), body); err != nil {
				break
			}
		}
	}
	if err == nil {
		got := digestOf(bodies)
		want, ok := storedDigests[vip.EngineVersion][w.name]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "perfbench: no digest stored for %s/%s; default-seed digest is %s\n", vip.EngineVersion, w.name, got)
		case got != want:
			err = fmt.Errorf("default-seed reports digest %s, stored digest for %s is %s", got, vip.EngineVersion, want)
		}
	}
	t.check(err)
	return cells
}

func runUntraced(w workload, o options) (*result, error) {
	b, setups, err := setUp(w, o)
	if err != nil {
		return nil, err
	}
	defer b.close()

	runtime.GC()
	v := newVerifier()
	t := &tally{}
	hs := startHeapSampler(2 * time.Millisecond)
	a0 := readAllocs()
	start := time.Now()
	b.measure(start.Add(time.Duration(o.seconds*float64(time.Second))), t, v)
	wall := time.Since(start).Seconds()
	allocs := readAllocs().since(a0)
	peak, heapSamples := hs.Stop()

	ref := checkReference(w, b, v, t)
	counted := append(append([]cell(nil), b.cells()...), ref...)
	t.check(checkRecorded(o.state, fmt.Sprintf("%s-seed%d", w.name, o.seed), v.total(counted)))
	if t.results == 0 || t.simMS == 0 {
		return nil, fmt.Errorf("no operation succeeded: %v", t.errs)
	}

	r := newReport()
	r.set("sim_ms_per_s", t.simMS/wall, "ms/s", t.results)
	r.set("sweep_wall_s", median(t.batchNS)/1e9, "s", len(t.batchNS))
	r.set("allocs_per_sim_ms", float64(allocs.mallocs)/t.simMS, "allocs/ms", t.results)
	r.set("alloc_mb_per_sim_ms", float64(allocs.bytes)/1e6/t.simMS, "MB/ms", t.results)
	r.set("heap_peak_mb", peak/1e6, "MB", heapSamples)
	r.set("setup_s", median(setups), "s", len(setups))
	r.set("hit_us_p50", median(t.hitNS)/1e3, "us", len(t.hitNS))
	r.set("hit_us_p90", quantile(t.hitNS, 0.9)/1e3, "us", len(t.hitNS))
	r.set("miss_ms_p50", median(t.missNS)/1e6, "ms", len(t.missNS))
	r.set("req_per_s", float64(t.results)/wall, "1/s", t.results)
	return finish(o, r, t)
}

// splitmix derives the i-th input seed of a run from its --seed, so a
// run's cells differ from seed to seed but never from run to run. The
// result is never 0 (the library default) nor the default seed.
func splitmix(seed uint64, i uint64) uint64 {
	r := rand{s: seed ^ i*0xd1b54a32d192ed03}
	return r.next()%1_000_000_007 + 2
}

// rand is a small deterministic generator (splitmix64), so every input a
// run draws depends only on its seed.
type rand struct{ s uint64 }

func (r *rand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rand) intn(n int) int { return int(r.next() % uint64(n)) }
