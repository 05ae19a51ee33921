package sim

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmfl/internal/compress"
	"cmfl/internal/core"
	"cmfl/internal/emu"
	"cmfl/internal/fl"
	"cmfl/internal/gaia"
	"cmfl/internal/telemetry"
)

// simConfig builds a small but fully featured simulation: heavy-tailed
// latency, imperfect availability, a deadline that cuts the tail, and the
// CMFL gate — every code path the determinism properties must cover.
func simConfig(t *testing.T, clients, shards int) Config {
	t.Helper()
	wl, err := SyntheticWorkload(clients, 8, 2, 6, 97)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model:         wl.Model,
		ClientData:    wl.Shards,
		Epochs:        1,
		Batch:         6,
		LR:            core.Constant(0.1),
		Filter:        core.NewFilter(core.Constant(0.4)),
		Rounds:        4,
		Seed:          97,
		Shards:        shards,
		Arrival:       ExpDist{Mean: 2 * time.Millisecond},
		Latency:       LogNormalDist{Median: 10 * time.Millisecond, Sigma: 0.6},
		Availability:  0.9,
		RoundDeadline: 40 * time.Millisecond,
		MinQuorum:     1,
	}
}

// fingerprint reduces a Result plus its registry to a deterministic string:
// bit-exact params, the full round history (NaNs render stably through %v),
// and the complete Prometheus exposition of every sim histogram.
func fingerprint(t *testing.T, res *Result, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range res.FinalParams {
		fmt.Fprintf(&sb, "%x;", math.Float64bits(p))
	}
	fmt.Fprintf(&sb, "\n%v\n%v\n%v\nlate=%d dur=%v\n",
		res.History, res.SkipCounts, res.StragglerCounts, res.LateReplies, res.VirtualDuration)
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestDeterminism pins the tentpole property: the same seed produces
// bit-identical final parameters, histories and registry histograms across
// reruns AND across shard counts.
func TestDeterminism(t *testing.T) {
	var want string
	for i, shards := range []int{1, 1, 3, 8, 64} {
		cfg := simConfig(t, 96, shards)
		cfg.Registry = telemetry.NewRegistry()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := fingerprint(t, res, cfg.Registry)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("shards=%d: result diverged from the shards=1 baseline", shards)
		}
	}
}

// TestDeterministicEventOrder asserts the event order itself — observed as
// the exact sequence of client telemetry events — is identical across
// reruns and shard counts, not just the aggregate outcome.
func TestDeterministicEventOrder(t *testing.T) {
	trace := func(shards int) string {
		cfg := simConfig(t, 64, shards)
		var sb strings.Builder
		cfg.Observers = []telemetry.Observer{telemetry.Funcs{
			Client: func(e telemetry.ClientEvent) {
				fmt.Fprintf(&sb, "c r%d c%d u%v b%d;", e.Round, e.Client, e.Uploaded, e.UplinkBytes)
			},
			Round: func(e telemetry.RoundEvent) {
				fmt.Fprintf(&sb, "R r%d p%d u%d d%d;", e.Round, e.Participants, e.Uploaded, e.Dropped)
			},
		}}
		if _, err := Run(cfg); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return sb.String()
	}
	want := trace(1)
	for _, shards := range []int{1, 4, 16} {
		if got := trace(shards); got != want {
			t.Fatalf("shards=%d: event order diverged", shards)
		}
	}
}

// TestFLParity is the cross-engine anchor. With zero latency, full
// availability, no deadline and compat streams, every engine must produce
// the same bits, because every engine averages through the same exact sum:
// the final parameters, the per-round Uploaded, Skipped, CumUploads and
// CumUplinkBytes, and the per-client skip counts. The columns are fl.Run
// (the reference), sim.Run, and emu.RunCluster over loopback TCP with a
// flat server and with 3- and 8-shard aggregation trees. The rows cover
// every gate branch: vanilla (no sign checker), CMFL (the sign fast path in
// fl and sim, the float check in emu), CMFL with cosine relevance (the sign
// checker declines) and Gaia; raw uploads, quantize8 and top6+quantize8;
// and EF-SGD error feedback on the two codecs (fl and emu only: sim has no
// error feedback). fl and sim must also agree on the per-round loss and
// relevance means. Each engine run gets its own filter instance.
func TestFLParity(t *testing.T) {
	// gates marks the cases whose threshold withholds some updates, so the
	// fold's skip path is covered; cmfl at 0.4 is the original parity case.
	filters := []struct {
		name  string
		gates bool
		new   func() fl.UploadFilter
	}{
		{"vanilla", false, func() fl.UploadFilter { return fl.Vanilla{} }},
		{"cmfl", false, func() fl.UploadFilter { return core.NewFilter(core.Constant(0.4)) }},
		{"cmfl-strict", true, func() fl.UploadFilter { return core.NewFilter(core.Constant(0.5)) }},
		{"cmfl-cosine", true, func() fl.UploadFilter {
			f := core.NewFilter(core.Constant(0.55))
			f.UseCosine = true
			return f
		}},
		{"gaia", true, func() fl.UploadFilter { return gaia.NewFilter(core.Constant(0.05)) }},
	}
	codecs := []struct {
		name, codec string
		ef          bool
	}{
		{"none", "none", false},
		{"quantize8", "quantize8", false},
		{"top6+quantize8", "top6+quantize8", false},
		{"ef-quantize8", "quantize8", true},
		{"ef-top6+quantize8", "top6+quantize8", true},
	}
	for _, cc := range codecs {
		t.Run(cc.name, func(t *testing.T) {
			codec, err := compress.ParseName(cc.codec)
			if err != nil {
				t.Fatal(err)
			}
			for _, filter := range filters {
				t.Run(filter.name, func(t *testing.T) {
					wl, werr := SyntheticWorkload(16, 8, 2, 6, 4242)
					if werr != nil {
						t.Fatal(werr)
					}
					const rounds = 5
					flCfg := fl.Config{
						Model:         wl.Model,
						ClientData:    wl.Shards,
						Epochs:        2,
						Batch:         4,
						LR:            core.Constant(0.12),
						Filter:        filter.new(),
						Rounds:        rounds,
						Seed:          4242,
						ErrorFeedback: cc.ef,
					}
					if codec != nil {
						flCfg.Compressor = codec
					}
					flRes, err := fl.Run(flCfg)
					if err != nil {
						t.Fatal(err)
					}
					want := engineRun{"fl", flRes.FinalParams, roundEvents(flRes.History, func(h fl.RoundStats) telemetry.RoundEvent { return h.RoundEvent }), flRes.SkipCounts}

					if !cc.ef {
						simCfg := Config{
							Model:         wl.Model,
							ClientData:    wl.Shards,
							Epochs:        2,
							Batch:         4,
							LR:            core.Constant(0.12),
							Filter:        filter.new(),
							Rounds:        rounds,
							Seed:          4242,
							Shards:        3,
							CompatStreams: true,
						}
						if codec != nil {
							simCfg.Compressor = codec
						}
						simRes, err := Run(simCfg)
						if err != nil {
							t.Fatal(err)
						}
						sameRun(t, want, engineRun{"sim", simRes.FinalParams, roundEvents(simRes.History, func(h RoundStats) telemetry.RoundEvent { return h.RoundEvent }), simRes.SkipCounts})
						for r := range flRes.History {
							fh, sh := flRes.History[r], simRes.History[r]
							if !sameBits(fh.TrainLoss, sh.TrainLoss) {
								t.Fatalf("round %d TrainLoss: fl %v != sim %v", r+1, fh.TrainLoss, sh.TrainLoss)
							}
							if !sameBits(fh.MeanRelevance, sh.MeanRelevance) {
								t.Fatalf("round %d MeanRelevance: fl %v != sim %v", r+1, fh.MeanRelevance, sh.MeanRelevance)
							}
						}
					}

					for _, shards := range []int{0, 3, 8} {
						emuCfg := emu.ClusterConfig{
							Model:         wl.Model,
							ClientData:    wl.Shards,
							Epochs:        2,
							Batch:         4,
							LR:            core.Constant(0.12),
							Filter:        filter.new(),
							Rounds:        rounds,
							Seed:          4242,
							ErrorFeedback: cc.ef,
							Topology:      emu.Topology{Shards: shards},
						}
						if codec != nil {
							emuCfg.Compressor = codec
						}
						emuRes, err := emu.RunCluster(emuCfg)
						if err != nil {
							t.Fatalf("emu shards=%d: %v", shards, err)
						}
						name := fmt.Sprintf("emu shards=%d", shards)
						sameRun(t, want, engineRun{name, emuRes.Server.FinalParams, roundEvents(emuRes.Server.History, func(h emu.RoundStats) telemetry.RoundEvent { return h.RoundEvent }), emuRes.Server.SkipCounts})
					}

					skips := 0
					for _, n := range flRes.SkipCounts {
						skips += n
					}
					if filter.gates && skips == 0 {
						t.Fatalf("%s never gated an update: the skip path went untested", filter.name)
					}
				})
			}
		})
	}
}

// engineRun is the part of one engine's result that TestFLParity compares.
type engineRun struct {
	engine string
	params []float64
	rounds []telemetry.RoundEvent
	skips  []int
}

// roundEvents extracts the RoundEvent of each of an engine's per-round
// stats.
func roundEvents[S any](history []S, event func(S) telemetry.RoundEvent) []telemetry.RoundEvent {
	out := make([]telemetry.RoundEvent, len(history))
	for i, h := range history {
		out[i] = event(h)
	}
	return out
}

// sameRun fails t unless got matches want bit for bit: final parameters,
// per-round upload accounting and per-client skip counts.
func sameRun(t *testing.T, want, got engineRun) {
	t.Helper()
	if len(got.params) != len(want.params) {
		t.Fatalf("param dims differ: %s %d, %s %d", want.engine, len(want.params), got.engine, len(got.params))
	}
	differ := 0
	for j := range want.params {
		if math.Float64bits(want.params[j]) != math.Float64bits(got.params[j]) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d final params differ in bits between %s and %s", differ, len(want.params), want.engine, got.engine)
	}
	if len(got.rounds) != len(want.rounds) {
		t.Fatalf("%s ran %d rounds, %s %d", got.engine, len(got.rounds), want.engine, len(want.rounds))
	}
	for r, we := range want.rounds {
		ge := got.rounds[r]
		if we.Uploaded != ge.Uploaded || we.Skipped != ge.Skipped ||
			we.CumUploads != ge.CumUploads || we.CumUplinkBytes != ge.CumUplinkBytes {
			t.Fatalf("round %d accounting diverged:\n  %s: %+v\n  %s: %+v", r+1, want.engine, we, got.engine, ge)
		}
	}
	for c, n := range want.skips {
		if got.skips[c] != n {
			t.Fatalf("client %d skips: %s %d, %s %d", c, want.engine, n, got.engine, got.skips[c])
		}
	}
}

// sameBits reports whether a and b are the same float64, NaN matching NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// countingCodec counts the calls reaching a wrapped codec; the shard
// workers encode concurrently.
type countingCodec struct {
	fl.UpdateCodec
	encodes, decodes atomic.Int64
}

func (c *countingCodec) EncodeInto(dst []byte, update []float64) ([]byte, error) {
	c.encodes.Add(1)
	return c.UpdateCodec.EncodeInto(dst, update)
}

func (c *countingCodec) DecodeInto(dst []float64, payload []byte, dim int) ([]float64, error) {
	c.decodes.Add(1)
	return c.UpdateCodec.DecodeInto(dst, payload, dim)
}

// TestEncodeOnce pins that every upload is encoded exactly once, by the
// client step, and the fold decodes that payload instead of re-encoding.
// With no deadline every reply is aggregated, so both counts equal the
// uploads.
func TestEncodeOnce(t *testing.T) {
	cfg := simConfig(t, 64, 4)
	cfg.RoundDeadline = 0
	inner, err := compress.ParseName("top6+quantize8")
	if err != nil {
		t.Fatal(err)
	}
	codec := &countingCodec{UpdateCodec: inner}
	cfg.Compressor = codec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uploads := int64(res.History[len(res.History)-1].CumUploads)
	if uploads == 0 {
		t.Fatal("no uploads: the run cannot count codec calls")
	}
	if got := codec.encodes.Load(); got != uploads {
		t.Fatalf("EncodeInto calls = %d, want one per upload (%d)", got, uploads)
	}
	if got := codec.decodes.Load(); got != uploads {
		t.Fatalf("DecodeInto calls = %d, want one per upload (%d)", got, uploads)
	}
}

// TestDeadlineSemantics pins the virtual-time deadline contract:
// deadline-closed rounds end exactly RoundDeadline after they start, and a
// reply landing exactly at the deadline instant is accepted (arrivals are
// scheduled before the deadline event, so the seq tie-break favours them).
func TestDeadlineSemantics(t *testing.T) {
	t.Run("fires exactly at RoundDeadline", func(t *testing.T) {
		cfg := simConfig(t, 64, 4)
		cfg.Rounds = 6
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fired := 0
		for _, rs := range res.History {
			if !rs.DeadlineFired {
				continue
			}
			fired++
			if got := rs.VirtualEnd - rs.VirtualStart; got != cfg.RoundDeadline {
				t.Fatalf("round %d closed %v after start, want exactly %v", rs.Round, got, cfg.RoundDeadline)
			}
			if rs.Dropped == 0 {
				t.Fatalf("round %d fired its deadline but dropped no stragglers", rs.Round)
			}
		}
		if fired == 0 {
			t.Fatal("no round hit its deadline; the scenario no longer exercises the straggler path")
		}
		if res.LateReplies == 0 {
			t.Fatal("straggler replies never drained as late frames")
		}
		total := 0
		for _, n := range res.StragglerCounts {
			total += n
		}
		if total == 0 {
			t.Fatal("deadline fired but per-client straggler counts are all zero")
		}
	})

	t.Run("reply exactly at the deadline is accepted", func(t *testing.T) {
		cfg := simConfig(t, 8, 2)
		cfg.Arrival = FixedDist{}
		cfg.Latency = FixedDist{D: 25 * time.Millisecond}
		cfg.Availability = 1
		cfg.RoundDeadline = 25 * time.Millisecond
		cfg.Rounds = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range res.History {
			if rs.DeadlineFired {
				t.Fatalf("round %d: all replies land exactly at the deadline and must beat it, but the deadline fired", rs.Round)
			}
			if rs.Dropped != 0 || rs.Participants != 8 {
				t.Fatalf("round %d: dropped=%d participants=%d, want 0/8", rs.Round, rs.Dropped, rs.Participants)
			}
			if got := rs.VirtualEnd - rs.VirtualStart; got != cfg.RoundDeadline {
				t.Fatalf("round %d duration %v, want %v (last reply at the deadline instant)", rs.Round, got, cfg.RoundDeadline)
			}
		}
	})
}

// TestQuorumAbort pins the sim-side quorum failure modes and their message
// stability across reruns.
func TestQuorumAbort(t *testing.T) {
	run := func() error {
		cfg := simConfig(t, 8, 2)
		cfg.Arrival = FixedDist{}
		cfg.Latency = FixedDist{D: time.Second} // everyone misses the deadline
		cfg.Availability = 1
		cfg.RoundDeadline = 10 * time.Millisecond
		_, err := Run(cfg)
		return err
	}
	first, second := run(), run()
	if first == nil || second == nil {
		t.Fatalf("all-straggler round must abort, got %v / %v", first, second)
	}
	want := "sim: round 1: quorum not met at deadline 10ms: 0 of 8 replies (minimum 1)"
	if first.Error() != want {
		t.Fatalf("abort error = %q, want %q", first, want)
	}
	if first.Error() != second.Error() {
		t.Fatalf("abort message unstable: %q vs %q", first, second)
	}

	// Too few available clients without a deadline: the "only N replies
	// possible" variant.
	cfg := simConfig(t, 8, 2)
	cfg.Arrival = FixedDist{}
	cfg.Latency = FixedDist{}
	cfg.Availability = 0.01
	cfg.RoundDeadline = 0
	cfg.MinQuorum = 8
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "replies possible (minimum 8)") {
		t.Fatalf("under-quorum run must fail with the replies-possible error, got: %v", err)
	}
}

// TestVirtualClockHeap unit-tests the scheduler core: min ordering, FIFO
// tie-breaking on equal timestamps, and monotone drain.
func TestVirtualClockHeap(t *testing.T) {
	var h eventHeap
	times := []time.Duration{30, 10, 20, 10, 30, 10, 0}
	for i, at := range times {
		h.push(Event{At: at, Client: i})
	}
	if h.len() != len(times) {
		t.Fatalf("len = %d, want %d", h.len(), len(times))
	}
	var prev Event
	var order []int
	for first := true; ; first = false {
		ev, ok := h.pop()
		if !ok {
			break
		}
		if !first {
			if ev.At < prev.At {
				t.Fatalf("drain went backwards in time: %v after %v", ev.At, prev.At)
			}
			if ev.At == prev.At && ev.Seq < prev.Seq {
				t.Fatalf("tie at %v drained out of schedule order: seq %d after %d", ev.At, ev.Seq, prev.Seq)
			}
		}
		prev = ev
		order = append(order, ev.Client)
	}
	// Clients 1, 3, 5 all scheduled for t=10: FIFO means push order.
	want := []int{6, 1, 3, 5, 2, 0, 4}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("drain order = %v, want %v", order, want)
	}
	if _, ok := h.pop(); ok {
		t.Fatal("pop from empty heap reported ok")
	}
}

// TestParseDist covers the CLI distribution grammar.
func TestParseDist(t *testing.T) {
	good := map[string]string{
		"fixed:10ms":         "fixed:10ms",
		"uniform:5ms,50ms":   "uniform:5ms,50ms",
		"lognormal:20ms,0.5": "lognormal:20ms,0.5",
		"exp:30ms":           "exp:30ms",
		"":                   "fixed:0s",
		"none":               "fixed:0s",
	}
	for spec, name := range good {
		d, err := ParseDist(spec)
		if err != nil {
			t.Fatalf("ParseDist(%q): %v", spec, err)
		}
		if d.Name() != name {
			t.Fatalf("ParseDist(%q).Name() = %q, want %q", spec, d.Name(), name)
		}
	}
	for _, spec := range []string{"bogus:1ms", "uniform:5ms", "uniform:50ms,5ms", "lognormal:10ms", "fixed:zzz", "lognormal:10ms,-1"} {
		if _, err := ParseDist(spec); err == nil {
			t.Fatalf("ParseDist(%q) accepted a malformed spec", spec)
		}
	}
}

// TestRegistryPercentiles closes the loop the soak harness depends on:
// latency and byte distributions land in the registry and come back out as
// sane quantiles.
func TestRegistryPercentiles(t *testing.T) {
	cfg := simConfig(t, 96, 4)
	cfg.Registry = telemetry.NewRegistry()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	fam := MetricFamilies(cfg.Registry)
	if fam.ReplyLatency.Count() == 0 {
		t.Fatal("no reply latencies observed")
	}
	p50, p99 := fam.ReplyLatency.Quantile(0.5), fam.ReplyLatency.Quantile(0.99)
	if math.IsNaN(p50) || math.IsNaN(p99) || p50 <= 0 || p99 < p50 {
		t.Fatalf("latency quantiles p50=%v p99=%v are not sane", p50, p99)
	}
	if fam.ReplyBytes.Count() != fam.ReplyLatency.Count() {
		t.Fatalf("reply bytes count %d != reply latency count %d", fam.ReplyBytes.Count(), fam.ReplyLatency.Count())
	}
}
