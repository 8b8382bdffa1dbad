// Package telemetry records causal, per-frame spans of a simulation —
// where each frame's time went as it hopped its IP chain — the per-IP and
// per-CPU phase timeline (what every core was doing, when), and the
// wall-clock request spans of the serving layer. The two clock domains
// never mix:
//
//   - Sim-time spans (Span, Recorder) are stamped exclusively from the
//     deterministic engine clock. Same scenario, same seed — byte-identical
//     span log, which the reproducibility tests pin. This file and its
//     exports must therefore never read the host clock; the viplint
//     `walltime` rule enforces that. Exports are JSON Lines, one
//     Chrome/Perfetto trace and a plain-text timeline.
//
//   - Wall-clock request spans (RequestSpan, reqspan.go) carry host-side
//     HTTP stage latencies. They are data holders only: the serving layer
//     reads its own clock and hands durations in, so no wall-clock call
//     appears in this package either.
//
// The Recorder follows the repository's probe discipline: a nil
// *Recorder is valid and records nothing, so model code calls it
// unconditionally at zero cost when tracing is off.
package telemetry

import (
	"fmt"
	"sort"

	"github.com/vipsim/vip/internal/sim"
)

// Span is one recorded interval (or instant, when End == Start) on a
// named track. Categories partition the stream: "frame" for frame
// lifecycle, "hop" for per-stage queue/service segments, "qos" for
// deadline outcomes, "recovery" for fault detours, and "phase" for the
// IP/CPU activity timeline (recorded only by a NewPhaseRecorder).
type Span struct {
	Track string   `json:"track"`
	Cat   string   `json:"cat"`
	Name  string   `json:"name"`
	Start sim.Time `json:"start_ns"`
	Dur   sim.Time `json:"dur_ns"`
	Attrs []Attr   `json:"attrs,omitempty"`
}

// Attr is one key/value annotation. Values are int64 or string only,
// which keeps every export byte-deterministic (no floats to format).
type Attr struct {
	Key string `json:"k"`
	Val any    `json:"v"`
}

// I64 builds an integer attribute.
func I64(k string, v int64) Attr { return Attr{Key: k, Val: v} }

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Recorder accumulates sim-time spans in memory. A nil *Recorder is a
// valid no-op probe. The engine is single-threaded, so no locking: spans
// arrive in deterministic event order.
//
// Whether phases are recorded is fixed at construction. The phase
// timeline is sub-frame granular — hundreds of thousands of spans where
// the causal stream has a few hundred — so only callers that want it
// (cmd/viptrace) build a NewPhaseRecorder.
type Recorder struct {
	spans  []Span
	phases bool
	last   map[string]int // track -> index of its latest phase span
}

// NewRecorder returns an empty recorder of the causal stream; it ignores
// Phase and PhaseMark.
func NewRecorder() *Recorder { return &Recorder{} }

// NewPhaseRecorder returns an empty recorder of the causal stream plus
// the IP/CPU phase timeline.
func NewPhaseRecorder() *Recorder { return &Recorder{phases: true} }

// Phases reports whether phase spans are being recorded. Emission sites
// guard on it so that untraced runs pay one pointer compare and never
// format a phase name.
func (r *Recorder) Phases() bool { return r != nil && r.phases }

// Len reports the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Emit records one span. No-op on a nil recorder or negative duration.
func (r *Recorder) Emit(s Span) {
	if r == nil || s.Dur < 0 {
		return
	}
	r.spans = append(r.spans, s)
}

// Instant records a zero-duration span.
func (r *Recorder) Instant(track, cat, name string, at sim.Time, attrs ...Attr) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, Span{Track: track, Cat: cat, Name: name, Start: at, Attrs: attrs})
}

// Phase records that track was in phase name from start to end. A span
// that starts where the track's previous phase span of the same name
// ended extends it, which keeps sub-frame-granular timelines compact.
// Inverted spans are dropped. No-op unless Phases reports true.
func (r *Recorder) Phase(track, name string, start, end sim.Time) {
	if !r.Phases() || end < start {
		return
	}
	if r.last == nil {
		r.last = make(map[string]int)
	}
	if i, ok := r.last[track]; ok {
		s := &r.spans[i]
		if s.Name == name && s.Start+s.Dur == start {
			s.Dur = end - s.Start
			return
		}
	}
	r.spans = append(r.spans, Span{Track: track, Cat: "phase", Name: name, Start: start, Dur: end - start})
	r.last[track] = len(r.spans) - 1
}

// PhaseMark records an instantaneous phase-timeline event on track
// (a lane hang or quarantine). No-op unless Phases reports true.
func (r *Recorder) PhaseMark(track, name string, at sim.Time) {
	if !r.Phases() {
		return
	}
	r.spans = append(r.spans, Span{Track: track, Cat: "phase", Name: name, Start: at})
}

// Spans returns a copy of the recording, stably sorted by start time
// (ties keep emission order, which is deterministic).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ---- Domain emitters: the vocabulary the driver and IP models speak ----

// FrameSubmit marks a frame's release into the driver on the flow track.
// The release instant may lie ahead of the emission time (burst headers
// pace descriptors into the future); the sorted export orders it correctly.
func (r *Recorder) FrameSubmit(track string, frame int, at sim.Time) {
	if r == nil {
		return
	}
	r.Instant(track, "frame", fmt.Sprintf("submit/f%d", frame), at)
}

// FrameDrop marks a frame dropped at release because the driver queue
// (MaxBacklog) was full.
func (r *Recorder) FrameDrop(track string, frame int, at sim.Time) {
	if r == nil {
		return
	}
	r.Instant(track, "frame", fmt.Sprintf("drop/f%d", frame), at)
}

// Frame records a completed frame's release-to-display interval with its
// QoS outcome, and an extra "qos" instant when the deadline was missed.
func (r *Recorder) Frame(track string, frame int, release, start, end, deadline sim.Time, onTime bool) {
	if r == nil {
		return
	}
	outcome := "met"
	if !onTime {
		outcome = "missed"
	}
	r.Emit(Span{
		Track: track, Cat: "frame", Name: fmt.Sprintf("f%d", frame),
		Start: release, Dur: end - release,
		Attrs: []Attr{
			I64("start_ns", int64(start)),
			I64("deadline_ns", int64(deadline)),
			Str("qos", outcome),
		},
	})
	if !onTime {
		r.Instant(track, "qos", fmt.Sprintf("miss/f%d", frame), end)
	}
}

// FrameExpired marks a frame that never completed within the run and was
// charged as a violation at end-of-run accounting.
func (r *Recorder) FrameExpired(track string, frame int, deadline sim.Time) {
	if r == nil {
		return
	}
	r.Instant(track, "qos", fmt.Sprintf("expired/f%d", frame), deadline)
}

// Detour marks a fault-recovery action (kind: "timeout", "retry",
// "degrade", "fail") taken for a frame on the flow track.
func (r *Recorder) Detour(track string, frame int, kind string, at sim.Time) {
	if r == nil {
		return
	}
	r.Instant(track, "recovery", fmt.Sprintf("%s/f%d", kind, frame), at)
}

// Hop records one (frame, stage) job's passage through an IP core as two
// spans on the hop track "flow<F>/s<S>:<IP>": the lane queue wait
// (submit to first dispatch) and the service interval (first dispatch to
// retirement), the latter annotated with the time the job spent waiting
// on DRAM and on the NoC and the bytes it moved.
func (r *Recorder) Hop(ip string, lane, flow, frame, stage int,
	submitted, started, finished sim.Time, dramNS, nocNS int64, bytesIn, bytesOut int) {
	if r == nil {
		return
	}
	track := fmt.Sprintf("flow%d/s%d:%s", flow, stage, ip)
	if started > submitted {
		r.Emit(Span{
			Track: track, Cat: "hop", Name: fmt.Sprintf("f%d/queue", frame),
			Start: submitted, Dur: started - submitted,
		})
	}
	r.Emit(Span{
		Track: track, Cat: "hop", Name: fmt.Sprintf("f%d/service", frame),
		Start: started, Dur: finished - started,
		Attrs: []Attr{
			I64("lane", int64(lane)),
			I64("dram_ns", dramNS),
			I64("noc_ns", nocNS),
			I64("bytes_in", int64(bytesIn)),
			I64("bytes_out", int64(bytesOut)),
		},
	})
}
