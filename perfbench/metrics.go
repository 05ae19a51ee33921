package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one metric. The end_to_end and per_layer lists of
// BENCHMARK.json must match these two lists name for name (a test checks).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd metrics are measured with tracing off and emitted by every
// workload. Seed-sensitive quality metrics (final_accuracy on fl-cnn) and
// timings carry the widest bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"client_rounds_per_s", "1/s", "higher", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"final_accuracy", "fraction", "higher", 0.25},
	{"uplink_bytes_per_client_round", "B", "lower", 0.1},
	{"cpu_ms_per_client_round", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer metrics come from the traced run and are emitted by every
// workload, each measured on that workload's own shapes.
var perLayer = []metricDef{
	{"tensor.gemm_gflops", "GFLOP/s", "higher", 0},
	{"nn.fwd_bwd_us_per_sample", "us", "lower", 0},
	{"fl.local_train_us", "us", "lower", 0},
	{"fl.local_train_allocs", "count", "lower", 0},
	{"fl.local_train_bytes", "B", "lower", 0},
	{"fl.check_upload_us", "us", "lower", 0},
	{"fl.gate_pass_ratio", "fraction", "higher", 0},
	{"core.sign_agreement_ns_per_coord", "ns", "lower", 0},
	{"compress.encode_ns_per_coord", "ns", "lower", 0},
	{"compress.decode_ns_per_coord", "ns", "lower", 0},
	{"compress.ratio", "fraction", "lower", 0},
	{"shard.fold_ns_per_coord", "ns", "lower", 0},
	{"shard.merge_round_ns_per_coord", "ns", "lower", 0},
	{"shard.fold_allocs_per_round", "count", "lower", 0},
	{"engine.worker_idle_share", "fraction", "lower", 0},
	{"engine.unattributed_ms_per_round", "ms", "lower", 0},
	{"runtime.gc_cpu_fraction", "fraction", "lower", 0},
	{"runtime.alloc_bytes_per_client_round", "B", "lower", 0},
	{"trace.wall_ratio", "ratio", "lower", 0},
}

// value is one measured number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered name → value map.
type metricSet struct {
	names []string
	vals  map[string]value
}

func (m *metricSet) set(name, unit string, v float64) {
	if m.vals == nil {
		m.vals = map[string]value{}
	}
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = value{Value: v, Unit: unit}
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// setDeclared sets a declared metric with its declared unit.
func (m *metricSet) setDeclared(name string, v float64) { m.set(name, unitOf(name), v) }

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p90, p99 and p99.9 that has at least ten
// samples beyond it; ok is false below 100 samples.
func tailQuantile(n int) (q float64, label string, ok bool) {
	for _, c := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if float64(n)*(1-c.q) >= 10-1e-9 {
			return c.q, c.label, true
		}
	}
	return 0, "", false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics computes the end-to-end metrics over the untraced
// episodes, and the printed-only figures beside them.
//
// setup_s is the median input synthesis (over the episodes' builds and the
// extra builds a run with few episodes makes) plus the median engine
// set-up.
func endToEndMetrics(w workload, eps []*episode, extraBuilds []time.Duration) (declared, extra metricSet) {
	var builds, engineSetups, rounds, accs []float64
	for _, d := range extraBuilds {
		builds = append(builds, d.Seconds())
	}
	var clientRounds, uplink int64
	var phase, cpu time.Duration
	var wire int64
	var nRounds int
	var ttts []float64
	for _, ep := range eps {
		if ep.traced || len(ep.failures) > 0 {
			continue
		}
		builds = append(builds, ep.build.Seconds())
		engineSetups = append(engineSetups, ep.engineSetup.Seconds())
		for _, d := range ep.rounds {
			rounds = append(rounds, ms(d))
		}
		accs = append(accs, ep.accuracy)
		clientRounds += int64(ep.clientRounds)
		uplink += ep.events[len(ep.events)-1].CumUplinkBytes
		phase += ep.phase
		cpu += ep.cpu
		wire += ep.out.wireUp + ep.out.wireDown
		nRounds += len(ep.rounds)
		if ep.ttt >= 0 {
			ttts = append(ttts, ep.ttt.Seconds())
		}
	}
	cr := float64(max(clientRounds, 1))
	declared.setDeclared("setup_s", median(builds)+median(engineSetups))
	declared.setDeclared("client_rounds_per_s", float64(clientRounds)/phase.Seconds())
	declared.setDeclared("round_ms_p50", median(rounds))
	declared.setDeclared("final_accuracy", median(accs))
	declared.setDeclared("uplink_bytes_per_client_round", float64(uplink)/cr)
	declared.setDeclared("cpu_ms_per_client_round", ms(cpu)/cr)
	declared.setDeclared("peak_rss_mb", peakRSSMiB())

	extra.set("round_count", "count", float64(len(rounds)))
	if q, label, ok := tailQuantile(len(rounds)); ok {
		extra.set("round_ms_"+label, "ms", quantile(rounds, q))
	}
	if len(ttts) > 0 {
		extra.set("time_to_target_s", "s", median(ttts))
	}
	if w.engine == "emu" && nRounds > 0 {
		extra.set("wire_bytes_per_round", "B", float64(wire)/float64(nRounds))
	}
	return declared, extra
}
