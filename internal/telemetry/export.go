package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/vipsim/vip/internal/sim"
)

// WriteJSONL writes the sorted span log as JSON Lines: one compact JSON
// object per span. Two runs of the same scenario and seed produce
// byte-identical output; the reproducibility tests pin that.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, s := range r.Spans() {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace JSON array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TSUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
	Cat   string         `json:"cat,omitempty"`
}

// WriteChrome writes the recording as a Chrome/Perfetto trace JSON
// array, loadable in chrome://tracing or ui.perfetto.dev: one named
// track (thread) per span track in first-seen order, "X" duration events
// for spans, "i" instants for marks, with span attributes carried in
// args. Map-valued args encode with sorted keys, so output is
// deterministic.
func (r *Recorder) WriteChrome(w io.Writer) error {
	spans := r.Spans()
	tid := make(map[string]int)
	var evs []chromeEvent
	for _, s := range spans {
		if _, ok := tid[s.Track]; ok {
			continue
		}
		id := len(tid) + 1
		tid[s.Track] = id
		evs = append(evs, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   1,
			TID:   id,
			Args:  map[string]any{"name": s.Track},
		})
	}
	for _, s := range spans {
		ce := chromeEvent{
			Name:  s.Name,
			TSUs:  s.Start.Microseconds(),
			PID:   1,
			TID:   tid[s.Track],
			Cat:   s.Cat,
			Phase: "X",
			DurUs: s.Dur.Microseconds(),
		}
		if s.Dur == 0 {
			ce.Phase = "i"
			ce.DurUs = 0
		}
		if len(s.Attrs) > 0 {
			args := make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				args[a.Key] = a.Val
			}
			ce.Args = args
		}
		evs = append(evs, ce)
	}
	return json.NewEncoder(w).Encode(evs)
}

// timelineTracks returns the sorted spans and the tracks that hold a
// "phase" or "frame" span, in order of the first such span's start.
func (r *Recorder) timelineTracks() (spans []Span, tracks []string, on map[string]bool) {
	spans = r.Spans()
	on = make(map[string]bool)
	for _, s := range spans {
		if onTimeline(s) && !on[s.Track] {
			on[s.Track] = true
			tracks = append(tracks, s.Track)
		}
	}
	return spans, tracks, on
}

func onTimeline(s Span) bool { return s.Cat == "phase" || s.Cat == "frame" }

// WriteTimeline renders an ASCII timeline of [from, to) with the given
// column width in simulated time per character. Each track that holds
// phase or frame spans is one row; a character is the first letter of
// the phase or frame span under it, '.' for idle.
func (r *Recorder) WriteTimeline(w io.Writer, from, to sim.Time, perChar sim.Time) {
	if r == nil || perChar <= 0 || to <= from {
		return
	}
	cols := int((to - from) / perChar)
	if cols > 200 {
		cols = 200
	}
	fmt.Fprintf(w, "timeline %v .. %v (%v/char)\n", from, from+sim.Time(cols)*perChar, perChar)
	spans, tracks, _ := r.timelineTracks()
	rows := make(map[string][]byte, len(tracks))
	for _, t := range tracks {
		rows[t] = []byte(strings.Repeat(".", cols))
	}
	for _, s := range spans {
		row := rows[s.Track]
		if row == nil || s.Dur == 0 || !onTimeline(s) {
			continue
		}
		ch := byte('#')
		if s.Name != "" {
			ch = s.Name[0]
		}
		lo := int((s.Start - from) / perChar)
		// Exclusive upper bound: a span ending exactly on a column
		// boundary must not paint the following column.
		hiEx := int((s.Start + s.Dur - from + perChar - 1) / perChar)
		for c := max(lo, 0); c < hiEx && c < cols; c++ {
			row[c] = ch
		}
	}
	for _, t := range tracks {
		fmt.Fprintf(w, "%-10.10s %s\n", t, rows[t])
	}
}

// Summary renders span counts and busy time for every timeline track
// (those holding phase or frame spans).
func (r *Recorder) Summary() string {
	spans, tracks, on := r.timelineTracks()
	if len(tracks) == 0 {
		return "trace: empty\n"
	}
	n := make(map[string]int, len(tracks))
	busy := make(map[string]sim.Time, len(tracks))
	total := 0
	for _, s := range spans {
		if on[s.Track] {
			n[s.Track]++
			busy[s.Track] += s.Dur
			total++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d spans on %d tracks\n", total, len(tracks))
	for _, t := range tracks {
		fmt.Fprintf(&b, "  %-12s %6d spans, %v busy\n", t, n[t], busy[t])
	}
	return b.String()
}
