package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/vipsim/vip/internal/core"
)

// verifier is the output-correctness gate of one run. The first report
// of each cell is checked against the model's public invariants and
// becomes the reference; every later report of the same cell must match
// it byte for byte.
type verifier struct {
	mu     sync.Mutex
	ref    map[string][32]byte
	counts map[string]workCounts
}

func newVerifier() *verifier {
	return &verifier{ref: make(map[string][32]byte), counts: make(map[string]workCounts)}
}

// check verifies one delivered report of cell id.
func (v *verifier) check(id string, body []byte) error {
	sum := sha256.Sum256(body)
	v.mu.Lock()
	ref, seen := v.ref[id]
	if !seen {
		v.ref[id] = sum
	}
	v.mu.Unlock()
	if seen {
		if sum != ref {
			return fmt.Errorf("%s: report bytes differ from the run's first report of the same cell", id)
		}
		return nil
	}
	rep, err := decodeReport(body)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	if err := invariants(rep); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	v.mu.Lock()
	v.counts[id] = reportCounts(rep)
	v.mu.Unlock()
	return nil
}

// total sums the work counts of the given cells. Only cells every run
// of a seed delivers belong here; serve-warm's fresh scenarios depend
// on how many requests fit in the window.
func (v *verifier) total(cells []cell) workCounts {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := workCounts{}
	for _, c := range cells {
		out.add(v.counts[c.id()])
	}
	return out
}

func decodeReport(body []byte) (*core.Report, error) {
	rep := new(core.Report)
	if err := json.Unmarshal(body, rep); err != nil {
		return nil, fmt.Errorf("report does not decode: %w", err)
	}
	return rep, nil
}

// invariants checks the conservation laws a report must satisfy.
// encoding/json refuses to encode NaN or Inf, so a report that decoded
// holds none; the float checks below cover derived fields anyway.
func invariants(rep *core.Report) error {
	if rep.DisplayedFrames <= 0 {
		return fmt.Errorf("no displayed frames")
	}
	for _, f := range rep.Flows {
		if f.Complete+f.Dropped > f.Frames {
			return fmt.Errorf("flow %s/%s: completed %d + dropped %d > offered %d",
				f.App, f.Flow, f.Complete, f.Dropped, f.Frames)
		}
		if bad(f.ViolationRate) || bad(f.AchievedFPS) || bad(f.P95FlowMS) {
			return fmt.Errorf("flow %s/%s: non-finite QoS figure", f.App, f.Flow)
		}
	}
	for _, x := range []float64{rep.TotalEnergyJ, rep.EnergyPerFrameJ, rep.ViolationRate, rep.AvgBWBps, rep.CPUActiveMSPerSec} {
		if bad(x) {
			return fmt.Errorf("non-finite or negative report figure %v", x)
		}
	}
	if rep.Energy == nil {
		return fmt.Errorf("no energy breakdown")
	}
	var cats float64
	for _, c := range rep.Energy.Categories() {
		cats += rep.Energy.Get(c)
	}
	if math.Abs(cats-rep.TotalEnergyJ) > 1e-9*math.Max(1, rep.TotalEnergyJ) {
		return fmt.Errorf("energy categories sum to %g J, total says %g J", cats, rep.TotalEnergyJ)
	}
	return nil
}

func bad(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) || x < 0 }

// workCounts are deterministic counts of simulated work. The same code
// at the same seed must reproduce them exactly.
type workCounts map[string]uint64

func (w workCounts) add(o workCounts) {
	for k, v := range o {
		w[k] += v
	}
}

func reportCounts(rep *core.Report) workCounts {
	w := workCounts{
		"sim.events_fired":        rep.Sim.EventsFired,
		"dram.requests":           rep.Mem.Requests,
		"dram.bytes":              rep.Mem.BytesMoved,
		"dram.row_hits":           rep.Mem.RowHits,
		"cpu.interrupts":          rep.CPU.Interrupts,
		"cpu.instructions":        rep.CPU.Instructions,
		"report.displayed_frames": uint64(rep.DisplayedFrames),
	}
	for _, ip := range rep.IPs {
		w["ip."+ip.Kind.String()+".frames"] = ip.Stats.Frames
		w["ip."+ip.Kind.String()+".ctx_switches"] = ip.Stats.CtxSwitch
	}
	return w
}

func (w workCounts) write(out io.Writer) error {
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(out, "%s %d\n", k, w[k]); err != nil {
			return err
		}
	}
	return nil
}

// checkRecorded compares w with the counts an earlier run of the same
// binary recorded for the same workload, seed and mode, and records w
// when there is none yet.
func checkRecorded(dir, name string, w workCounts) error {
	exe, err := exeDigest()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.%s.counts", name, exe[:16]))
	var cur bytes.Buffer
	if err := w.write(&cur); err != nil {
		return err
	}
	prev, err := os.ReadFile(path)
	if err == nil {
		if !bytes.Equal(prev, cur.Bytes()) {
			return fmt.Errorf("work counts differ from an earlier run of the same build (%s)", path)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, cur.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// exeDigest identifies the running build, so recorded counts are only
// ever compared between runs of the same code.
func exeDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// storedDigests pins, per engine version, the sha256 of each workload's
// reports at the default seed (for the sweep and serve workloads, of the
// reports of all its cells in order). A model change that alters
// simulated output bumps vip.EngineVersion, and the new version has no
// entry until one is recorded here; runs then print the digest instead
// of checking it.
var storedDigests = map[string]map[string]string{
	"vip-engine/1": {
		"baseline-4video": "3ed91656822c7c6ba3b2f54ebc89fbebd645afb4036bb15703bb9ccc94dbd9f2",
		"vip-w1":          "e5b77dfb34dad6bb29c27099f4d48017811461d7ed8cac90f733852df9ae5abc",
		"paper-sweep":     "a2ad34fdf982bf0723ecc58fac32b83aed67151e481a54649324e8a459cacc80",
		"serve-warm":      "e02f607b7eba3135a138abfdcbfceb01f8acc47b4e507299593e61c2350bf1ad",
	},
}

func digestOf(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
