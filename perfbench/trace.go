package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cmfl/internal/core"
	"cmfl/internal/fl"
)

// Span names. Spans are recorded only here, around the calls the benchmark
// makes into an engine's public seams; nothing inside the engines is
// instrumented.
const (
	spanRun    = "run"
	spanSetup  = "setup"
	spanRound  = "round"
	spanGate   = "fl.UploadFilter"
	spanEncode = "compress.EncodeInto"
	spanDecode = "compress.DecodeInto"
)

// span is one timed interval. Start and End are nanoseconds since the
// episode's Run call; Parent is the id of the enclosing span (-1 at the
// root). Id 0 is the run and 1..rounds are the rounds, assigned up front so
// children recorded before their round closes can name it.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps an episode's spans in memory; writeSpans stores them when
// the run ends.
type tracer struct {
	// epoch is the start of the Run call, set before the engine starts.
	epoch  time.Time
	rounds int

	mu    sync.Mutex
	spans []span

	// round is the round the engine is in: codec calls carry no round
	// number, and every engine encodes and decodes round t's uploads
	// before emitting round t's event.
	round atomic.Int64

	decisions, passes atomic.Int64
	encodes           atomic.Int64
}

func newTracer(rounds, clients int) *tracer {
	t := &tracer{rounds: rounds}
	// Room for a gate span and up to three codec spans per client-round,
	// so appending never copies a large slice mid-round.
	t.spans = make([]span, rounds+1, rounds+1+4*rounds*clients)
	t.spans[0] = span{Name: spanRun, ID: 0, Parent: -1}
	for r := 1; r <= rounds; r++ {
		t.spans[r] = span{Name: spanRound, ID: r, Parent: 0}
	}
	t.round.Store(1)
	return t
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(name string, parent int, start, end time.Time) {
	s, e := t.ns(start), t.ns(end)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Start: s, End: e})
	t.mu.Unlock()
}

// addTree records a span and its children (given with names and times;
// their ids and parent are assigned here).
func (t *tracer) addTree(name string, start, end time.Time, children ...span) {
	s, e := t.ns(start), t.ns(end)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: 0, Start: s, End: e})
	for _, c := range children {
		c.ID, c.Parent = len(t.spans), id
		t.spans = append(t.spans, c)
	}
	t.mu.Unlock()
}

// roundDone closes round r at the observer's timestamp and opens round r+1.
func (t *tracer) roundDone(r int, at time.Time) {
	if r < 1 || r > t.rounds {
		return
	}
	ns := t.ns(at)
	t.mu.Lock()
	t.spans[r].End = ns
	if r < t.rounds {
		t.spans[r+1].Start = ns
	}
	t.mu.Unlock()
	t.round.Store(int64(r + 1))
}

// finish fixes the run and setup spans once the Run call returned: round 1
// starts where set-up ended.
func (t *tracer) finish(setupEnd, end time.Time) {
	t.mu.Lock()
	t.spans[0].End = t.ns(end)
	if t.rounds > 0 {
		t.spans[1].Start = t.ns(setupEnd)
	}
	t.spans = append(t.spans, span{Name: spanSetup, ID: len(t.spans), Parent: 0, End: t.ns(setupEnd)})
	t.mu.Unlock()
}

func (t *tracer) decide(r int, start time.Time, dec core.Decision, err error) {
	t.add(spanGate, r, start, time.Now())
	if err == nil {
		t.decisions.Add(1)
		if dec.Upload {
			t.passes.Add(1)
		}
	}
}

// tracedFilter times the upload gate. It forwards the optional interfaces
// the engines type-assert (fl.SignChecker, fl.FilterFeedback), so a traced
// run takes the same decision path as an untraced one: the final-parameter
// digest check compares the two.
type tracedFilter struct {
	inner fl.UploadFilter
	t     *tracer
}

func (f *tracedFilter) Name() string { return f.inner.Name() }

func (f *tracedFilter) Check(local, model, prevGlobal []float64, r int) (core.Decision, error) {
	start := time.Now()
	dec, err := f.inner.Check(local, model, prevGlobal, r)
	f.t.decide(r, start, dec, err)
	return dec, err
}

// CheckSigns reports "not handled" when the wrapped filter has no sign
// fast path, which sends the engine to Check exactly as it would go
// without the wrapper.
func (f *tracedFilter) CheckSigns(local []float64, feedbackSigns []int8, r int) (core.Decision, bool, error) {
	sc, ok := f.inner.(fl.SignChecker)
	if !ok {
		return core.Decision{}, false, nil
	}
	start := time.Now()
	dec, handled, err := sc.CheckSigns(local, feedbackSigns, r)
	if handled || err != nil {
		f.t.decide(r, start, dec, err)
	}
	return dec, handled, err
}

func (f *tracedFilter) ObserveRound(round, uploaded, participants int) {
	if fb, ok := f.inner.(fl.FilterFeedback); ok {
		fb.ObserveRound(round, uploaded, participants)
	}
}

// tracedCodec times and counts codec calls (sim and fl only: the emu wire
// hello needs a concrete codec's spec).
type tracedCodec struct {
	inner fl.UpdateCodec
	t     *tracer
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) EncodeInto(dst []byte, update []float64) ([]byte, error) {
	start := time.Now()
	out, err := c.inner.EncodeInto(dst, update)
	c.t.add(spanEncode, int(c.t.round.Load()), start, time.Now())
	c.t.encodes.Add(1)
	return out, err
}

func (c *tracedCodec) DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error) {
	start := time.Now()
	out, err := c.inner.DecodeInto(dst, payload, dim)
	c.t.add(spanDecode, int(c.t.round.Load()), start, time.Now())
	return out, err
}

// spanStat summarises the spans of one name.
type spanStat struct {
	name  string
	calls int
	total time.Duration
}

// spanStats sums span durations per name (rounds and the run excluded), and
// the rounds' self time: round wall time not covered by any child span.
func (t *tracer) spanStats() (stats []spanStat, roundSelf time.Duration) {
	by := map[string]*spanStat{}
	children := make([][][2]int64, t.rounds+1)
	for _, s := range t.spans {
		switch s.Name {
		case spanRun, spanRound, spanSetup:
			continue
		}
		st := by[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			by[s.Name] = st
		}
		st.calls++
		st.total += time.Duration(s.End - s.Start)
		if s.Parent >= 1 && s.Parent <= t.rounds {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for r := 1; r <= t.rounds; r++ {
		rs := t.spans[r]
		roundSelf += time.Duration(rs.End-rs.Start) - covered(children[r], rs.Start, rs.End)
	}
	for _, st := range by {
		stats = append(stats, *st)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].name < stats[j].name })
	return stats, roundSelf
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return time.Duration(total)
}

// maxWrittenPerName bounds the call-level spans written per name: a sim-pop
// episode records over a million, and their sums are printed in the traced
// spans table. Run, round and set-up spans never reach the cap.
const maxWrittenPerName = 20000

// writeSpans stores the spans as JSON lines: a header naming how many spans
// of each name were dropped, then one span per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	written, dropped := map[string]int{}, map[string]int{}
	var keep []span
	for _, s := range t.spans {
		if written[s.Name] >= maxWrittenPerName {
			dropped[s.Name]++
			continue
		}
		written[s.Name]++
		keep = append(keep, s)
	}
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"spans": len(keep), "dropped": dropped})
	for i := 0; err == nil && i < len(keep); i++ {
		err = enc.Encode(keep[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}
