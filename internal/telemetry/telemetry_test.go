package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"github.com/vipsim/vip/internal/sim"
)

// TestNilRecorderIsNoOp pins the probe discipline: model code calls a
// nil recorder unconditionally, so every method must be safe on nil and
// no emitter may format a name or box an attribute before its nil check
// ("zero cost when tracing is off").
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		r.Emit(Span{Track: "t", Name: "x"})
		r.Instant("t", "c", "x", 0)
		r.FrameSubmit("t", 1, 0)
		r.FrameDrop("t", 1, 0)
		r.Frame("t", 1, 0, 1, 2, 3, false)
		r.FrameExpired("t", 1, 0)
		r.Detour("t", 1, "timeout", 0)
		r.Hop("VD", 0, 0, 1, 0, 0, 1, 2, 0, 0, 1, 1)
		r.Phase("VD", "compute", 0, 10)
		r.PhaseMark("VD", "fault/hang/lane0", 10)
	})
	if allocs != 0 {
		t.Errorf("nil-recorder emitters allocate %v times per call set, want 0", allocs)
	}
	if r.Len() != 0 || r.Spans() != nil || r.Phases() {
		t.Error("nil recorder recorded something")
	}
	if !strings.Contains(r.Summary(), "empty") {
		t.Error("nil summary should say empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteChrome(&buf); err != nil {
		t.Errorf("nil WriteChrome: %v", err)
	}
}

func sample() *Recorder {
	r := NewRecorder()
	r.FrameSubmit("flow0:A5/play", 0, 0)
	r.Hop("VD", 1, 0, 0, 0, 0, 2*sim.Microsecond, 9*sim.Microsecond, 1500, 250, 4096, 2048)
	r.Frame("flow0:A5/play", 0, 0, 2*sim.Microsecond, 12*sim.Microsecond, 16*sim.Microsecond, true)
	r.Frame("flow0:A5/play", 1, 16*sim.Microsecond, 18*sim.Microsecond, 40*sim.Microsecond, 32*sim.Microsecond, false)
	r.Detour("flow0:A5/play", 1, "timeout", 35*sim.Microsecond)
	return r
}

// TestSpansSortedAndStable: exported spans are ordered by start time and
// two identical recordings export byte-identical JSONL and Chrome JSON.
func TestSpansSortedAndStable(t *testing.T) {
	r := sample()
	spans := r.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans out of order at %d: %v after %v", i, spans[i].Start, spans[i-1].Start)
		}
	}
	var a, b bytes.Buffer
	if err := r.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := sample().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recordings exported different JSONL")
	}
	a.Reset()
	b.Reset()
	if err := r.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := sample().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recordings exported different Chrome JSON")
	}
}

// TestJSONLShape: every line is standalone JSON with integer timestamps
// and the expected categories; the missed frame carries a qos instant.
func TestJSONLShape(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	cats := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var s struct {
			Track string `json:"track"`
			Cat   string `json:"cat"`
			Name  string `json:"name"`
			Start int64  `json:"start_ns"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if s.Track == "" || s.Cat == "" || s.Name == "" {
			t.Errorf("line missing fields: %q", line)
		}
		cats[s.Cat]++
	}
	for _, want := range []string{"frame", "hop", "qos", "recovery"} {
		if cats[want] == 0 {
			t.Errorf("no %q spans in JSONL", want)
		}
	}
	if !strings.Contains(buf.String(), `{"k":"qos","v":"missed"}`) {
		t.Error("missed frame lost its qos attribute")
	}
	if !strings.Contains(buf.String(), `{"k":"dram_ns","v":1500}`) {
		t.Error("hop span lost its dram_ns attribute")
	}
}

// TestChromeShape: the Chrome export is one JSON array with thread_name
// metadata for every track and args on annotated spans.
func TestChromeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v", err)
	}
	names := 0
	for _, e := range evs {
		if e["name"] == "thread_name" {
			names++
		}
	}
	if names != 2 { // flow track + hop track
		t.Errorf("expected 2 thread_name events, got %d", names)
	}
}

// TestCausalRecorderIgnoresPhases: a NewRecorder keeps the causal stream
// only, so phase emission never reaches TraceSpans output.
func TestCausalRecorderIgnoresPhases(t *testing.T) {
	r := NewRecorder()
	if r.Phases() {
		t.Fatal("NewRecorder reports Phases")
	}
	r.Phase("VD", "compute", 0, 10)
	r.PhaseMark("VD", "fault/hang/lane0", 10)
	if r.Len() != 0 {
		t.Errorf("causal recorder kept %d phase spans", r.Len())
	}
	if !NewPhaseRecorder().Phases() {
		t.Error("NewPhaseRecorder does not report Phases")
	}
}

func TestPhaseMerging(t *testing.T) {
	r := NewPhaseRecorder()
	// Back-to-back same-name spans merge (sub-frame phase coalescing).
	r.Phase("VD", "compute", 0, 10)
	r.PhaseMark("VD", "fault/hang/lane0", 10) // marks do not break a run
	r.Phase("VD", "compute", 10, 25)
	if r.Len() != 2 {
		t.Fatalf("adjacent spans should merge, got %d spans", r.Len())
	}
	if d := r.Spans()[0].Dur; d != 25 {
		t.Errorf("merged dur = %v", d)
	}
	// A gap prevents merging.
	r.Phase("VD", "compute", 30, 40)
	if r.Len() != 3 {
		t.Error("gapped spans must not merge")
	}
	// A different name prevents merging.
	r.Phase("VD", "memstall", 40, 50)
	if r.Len() != 4 {
		t.Error("different names must not merge")
	}
	// Another track's span is not a merge candidate.
	r.Phase("DC", "memstall", 50, 60)
	if r.Len() != 5 {
		t.Error("spans on different tracks must not merge")
	}
}

func TestInvertedSpanIgnored(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "x", 10, 5)
	if r.Len() != 0 {
		t.Error("inverted span should be dropped")
	}
}

// TestNilRecorderPhaseNoOp: the phase side of a nil recorder is safe to
// call and renders as empty.
func TestNilRecorderPhaseNoOp(t *testing.T) {
	var r *Recorder
	r.Phase("VD", "compute", 0, 10) // must not panic
	r.PhaseMark("VD", "done", 10)
	if r.Len() != 0 || r.Spans() != nil {
		t.Error("nil recorder should be empty")
	}
	if !strings.Contains(r.Summary(), "empty") {
		t.Error("nil summary should say empty")
	}
	var buf bytes.Buffer
	r.WriteTimeline(&buf, 0, 10, 1)
	if buf.Len() != 0 {
		t.Errorf("nil WriteTimeline wrote %q", buf.String())
	}
}

// TestPhaseAndMark: phase spans and marks are recorded, exported in
// start order, and timeline tracks follow the first span's start.
func TestPhaseAndMark(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 10, 20)
	r.PhaseMark("VD", "frame", 20)
	r.Phase("DC", "compute", 5, 8)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	spans := r.Spans()
	if spans[0].Track != "DC" {
		t.Error("spans should sort by start time")
	}
	for _, s := range spans {
		if s.Cat != "phase" {
			t.Errorf("span %q has cat %q, want phase", s.Name, s.Cat)
		}
	}
	if s := r.Summary(); !strings.Contains(s, "on 2 tracks") || strings.Index(s, "DC") > strings.Index(s, "VD") {
		t.Errorf("Summary = %q, want DC then VD", s)
	}
}

// Property: total recorded phase time equals the sum of inserted
// durations regardless of merging.
func TestMergeConservesDurationProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		r := NewPhaseRecorder()
		var cursor, want sim.Time
		for i, d := range durs {
			dur := sim.Time(d)
			r.Phase("t", "x", cursor, cursor+dur)
			want += dur
			cursor += dur
			if i%3 == 2 {
				cursor += 5 // gap every third span
			}
		}
		var got sim.Time
		for _, s := range r.Spans() {
			got += s.Dur
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteTimeline(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 0, 5*sim.Millisecond)
	r.Phase("DC", "memstall", 5*sim.Millisecond, 10*sim.Millisecond)
	r.Hop("VD", 0, 0, 0, 0, 0, 1, 2, 0, 0, 1, 1) // hop tracks stay off the timeline
	var buf bytes.Buffer
	r.WriteTimeline(&buf, 0, 10*sim.Millisecond, sim.Millisecond)
	out := buf.String()
	if !strings.Contains(out, "VD") || !strings.Contains(out, "DC") {
		t.Errorf("timeline missing tracks:\n%s", out)
	}
	if strings.Contains(out, "flow0") {
		t.Errorf("timeline shows a hop track:\n%s", out)
	}
	if !strings.Contains(out, "ccccc") {
		t.Errorf("VD row should show compute chars:\n%s", out)
	}
	// Degenerate calls are no-ops.
	r.WriteTimeline(&buf, 10, 5, 1)
	r.WriteTimeline(&buf, 0, 10, 0)
}

func TestWriteTimelineSpanBound(t *testing.T) {
	r := NewPhaseRecorder()
	// Span covering exactly columns 0 and 1 — ends on the column-2
	// boundary and must not bleed into column 2.
	r.Phase("VD", "compute", 0, 2*sim.Millisecond)
	var buf bytes.Buffer
	r.WriteTimeline(&buf, 0, 4*sim.Millisecond, sim.Millisecond)
	out := buf.String()
	if !strings.Contains(out, "cc..") {
		t.Errorf("span must fill exactly its own columns:\n%s", out)
	}
	if strings.Contains(out, "ccc") {
		t.Errorf("span painted past its end:\n%s", out)
	}
	// A span that only partially covers its last column still paints it.
	r2 := NewPhaseRecorder()
	r2.Phase("VD", "compute", 0, 2*sim.Millisecond+1)
	buf.Reset()
	r2.WriteTimeline(&buf, 0, 4*sim.Millisecond, sim.Millisecond)
	if !strings.Contains(buf.String(), "ccc.") {
		t.Errorf("partial column must round up:\n%s", buf.String())
	}
}

func TestSummary(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 0, 100)
	r.Phase("VD", "memstall", 100, 150)
	s := r.Summary()
	if !strings.Contains(s, "VD") || !strings.Contains(s, "2 spans") || !strings.Contains(s, "150ns busy") {
		t.Errorf("Summary = %q", s)
	}
}

func TestWriteChromePhaseKinds(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 1000, 3000)
	r.PhaseMark("VD", "frame", 3000)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	// thread_name metadata + span + mark.
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	var sawMeta, sawSpan, sawMark bool
	for _, e := range evs {
		switch e["ph"] {
		case "M":
			sawMeta = true
		case "X":
			sawSpan = true
			if e["dur"].(float64) != 2 { // 2000ns = 2us
				t.Errorf("span dur = %v us, want 2", e["dur"])
			}
		case "i":
			sawMark = true
		}
	}
	if !sawMeta || !sawSpan || !sawMark {
		t.Error("missing chrome event kinds")
	}
}

func TestWriteChromeGolden(t *testing.T) {
	r := NewPhaseRecorder()
	r.Phase("VD", "compute", 1000, 3000)
	r.PhaseMark("VD", "frame", 3000)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `[{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"VD"}},` +
		`{"name":"compute","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"cat":"phase"},` +
		`{"name":"frame","ph":"i","ts":3,"pid":1,"tid":1,"cat":"phase"}]` + "\n"
	if got := buf.String(); got != golden {
		t.Errorf("chrome trace drifted from golden output:\n got: %s\nwant: %s", got, golden)
	}
}

// TestRequestSpan covers the wall-clock side: stage accumulation, the
// header rendering and the access-log line shape.
func TestRequestSpan(t *testing.T) {
	rs := &RequestSpan{ID: "r000001", Method: "POST", Path: "/v1/sim", Status: 200, Cache: "miss"}
	rs.AddStage("admit", 41_000)
	rs.AddStage("queue", -5) // clamps
	rs.AddStage("simulate", 12_007_000)
	rs.TotalNS = 12_100_000
	h := rs.StageHeader()
	if h != "admit=0.041ms;queue=0.000ms;simulate=12.007ms" {
		t.Errorf("StageHeader = %q", h)
	}
	line, err := rs.AccessLogLine("2026-01-02T03:04:05Z")
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v", err)
	}
	for _, k := range []string{"time", "id", "method", "path", "status", "stages", "total_ns"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("access log line missing %q: %s", k, line)
		}
	}
}
