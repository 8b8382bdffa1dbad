package main

import (
	"fmt"
	"strings"

	"github.com/vipsim/vip/internal/experiments"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/serve"
	"github.com/vipsim/vip/vip"
)

// cell is one simulation a workload asks for: a design, an app mix, a
// simulated duration and a seed. Its id names the report it produces;
// two cells with the same id must produce the same bytes.
type cell struct {
	system vip.System
	apps   []string
	dur    vip.Duration
	seed   uint64
}

func (c cell) id() string {
	return fmt.Sprintf("%s/%s/%gms/seed%d", c.system, strings.Join(c.apps, "+"), c.dur.Milliseconds(), c.seed)
}

func (c cell) withSeed(seed uint64) cell {
	c.seed = seed
	return c
}

// scenario is the cell as the public library takes it.
func (c cell) scenario() vip.Scenario {
	return vip.Scenario{System: c.system, Apps: c.apps, Duration: c.dur, Seed: c.seed}
}

// config is the cell as the figure harness takes it.
func (c cell) config() experiments.Config {
	return experiments.Config{Mode: modeOf(c.system), AppIDs: c.apps, Duration: c.dur, Seed: c.seed}
}

// request is the cell as a vipserve client submits it.
func (c cell) request() serve.SimRequest {
	return serve.SimRequest{
		System:     systemFlag[c.system],
		Apps:       c.apps,
		DurationMS: c.dur.Milliseconds(),
		Seed:       c.seed,
	}
}

// systemFlag spells each design the way vipserve's "system" field and
// the CLIs accept it.
var systemFlag = map[vip.System]string{
	vip.SystemBaseline:    "baseline",
	vip.SystemFrameBurst:  "frameburst",
	vip.SystemIPToIP:      "iptoip",
	vip.SystemIPToIPBurst: "iptoipburst",
	vip.SystemVIP:         "vip",
}

// modeOf maps a public design to the platform mode of the same name.
func modeOf(s vip.System) platform.Mode {
	for _, m := range platform.AllModes() {
		if m.String() == s.String() {
			return m
		}
	}
	panic(fmt.Sprintf("perfbench: no platform mode named %q", s))
}

// sweepCells is the Fig 15-18 grid: every scenario column (A1-A7,
// W1-W8) under every design, in the order RunModeSweep fans it out.
func sweepCells(dur vip.Duration, seed uint64) []cell {
	var out []cell
	for _, sc := range experiments.Scenarios() {
		for _, s := range vip.Systems() {
			out = append(out, cell{system: s, apps: sc.AppIDs, dur: dur, seed: seed})
		}
	}
	return out
}
