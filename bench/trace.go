package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"time"
)

// A span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent indexes the span that
// was open when this one began (-1 for a root); TTI ties the spans of one
// lock-step TTI together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	TTI    int32  `json:"tti"`
}

// tracer records spans in memory. Everything the benchmark traces runs on
// the driver goroutine (Master.Tick and its OnTick apps, ENB.Step and the
// agent's send hook, Agent.Deliver), so one open-span stack gives every
// span its parent. A nil *tracer records nothing: the untraced run pays
// one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	tti   int32
}

func newTracer(capSpans int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capSpans), open: make([]int32, 0, 8)}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, TTI: t.tti})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.t0))
	t.open = t.open[:n]
}

// spanTotals is the per-name sum over a trace: inclusive duration, self
// time (duration minus what the span's direct children cover) and count.
type spanTotals struct {
	durNs, selfNs int64
	count         int
}

// selfTimes folds spans into per-name totals. Children of one parent never
// overlap (single stack), so subtracting each span's duration from its
// parent leaves exactly the parent's uncovered time, whether the children
// are nested, adjacent or both.
func selfTimes(spans []span) map[string]spanTotals {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]spanTotals{}
	for i, s := range spans {
		t := out[s.Name]
		t.durNs += s.End - s.Start
		t.selfNs += self[i]
		t.count++
		out[s.Name] = t
	}
	return out
}

// traceFileTTIs bounds the spans written out: the file is for reading one
// TTI's tree, the aggregates cover the whole traced section.
const traceFileTTIs = 1000

// writeTrace stores the first traceFileTTIs TTIs of spans plus the
// per-name totals of the whole trace.
func writeTrace(path string, spans []span, totals map[string]spanTotals, ttis int) error {
	type totalJSON struct {
		Name     string  `json:"name"`
		Count    int     `json:"count"`
		DurUsTTI float64 `json:"dur_us_per_tti"`
		SelfUs   float64 `json:"self_us_per_tti"`
	}
	var doc struct {
		TracedTTIs int         `json:"traced_ttis"`
		Totals     []totalJSON `json:"totals"`
		Spans      []span      `json:"spans"`
	}
	doc.TracedTTIs = ttis
	for _, name := range slices.Sorted(maps.Keys(totals)) {
		t := totals[name]
		doc.Totals = append(doc.Totals, totalJSON{
			Name: name, Count: t.count,
			DurUsTTI: float64(t.durNs) / 1e3 / float64(ttis),
			SelfUs:   float64(t.selfNs) / 1e3 / float64(ttis),
		})
	}
	cut := len(spans)
	if len(spans) > 0 {
		last := spans[0].TTI + traceFileTTIs
		for i, s := range spans {
			if s.TTI >= last {
				cut = i
				break
			}
		}
	}
	doc.Spans = spans[:cut]
	blob, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
