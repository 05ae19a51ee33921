// Command perfbench is the repository's benchmark. It drives one of three
// closed-loop workloads through an engine's public entry point (sim.Run,
// emu.RunCluster, fl.Run), checks the outputs, and prints every metric by
// name and unit; the last line of standard output is a JSON result.
//
//	perfbench --workload sim-pop --seed 1 --seconds 30 --trace 0
//	perfbench --workload all --seed 1 --seconds 30 --trace 0
//	perfbench compare <base records> <change records>
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it alternates untraced and traced episodes, replays every
// layer on the workload's own round-1 inputs, prints the per-layer metrics
// and the reconciliation table, and writes the spans. Every run stores a
// record (cohort, digest, all metrics) under --out for compare. README.md
// beside this file explains the workloads and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// minSetups is the least number of input builds setup_s is a median of.
const minSetups = 5

type options struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool
	outDir  string
}

// result is the final stdout line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is a run as stored for compare: the result plus what is needed to
// judge it — host cohort, model digest, and the printed-only figures.
type record struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Trace    bool             `json:"trace"`
	Cohort   cohort           `json:"cohort"`
	Digest   string           `json:"digest"`
	Episodes int              `json:"episodes"`
	Failures []string         `json:"failures"`
	Result   result           `json:"result"`
	Extra    map[string]value `json:"extra"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-pop, emu-wide, fl-cnn, or all of them in turn")
	var o options
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement window; whole episodes run until it is used up (at least two)")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "runs"), "directory for run records and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	var err error
	if *name != "all" {
		var w workload
		w, err = workloadByName(*name)
		selected = []workload{w}
	}
	if err != nil || fs.NArg() > 0 || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload <sim-pop|emu-wide|fl-cnn|all> --seed <n> --seconds <s> --trace <0|1> (%v)\n", err)
		return 2
	}
	o.trace = *trace == 1
	for _, w := range selected {
		rec, err := run(w, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// run executes whole episodes until the window is used up (at least two;
// traced runs alternate untraced and traced episodes and end on a traced
// one), then checks, computes and prints the metrics.
func run(w workload, o options, out io.Writer) (*record, error) {
	co := hostCohort()
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%t window=%gs\nwhy: %s\ncohort: %s\n", w.name, o.seed, o.trace, o.seconds, w.why, co)
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var eps []*episode
	var in *inputs
	var lastTraced *episode
	for {
		traced := o.trace && len(eps)%2 == 1
		in = nil // let the previous population go before building the next
		ep, epIn := runEpisode(w, o.seed, o.tiny, traced)
		eps = append(eps, ep)
		if epIn == nil {
			break
		}
		in = epIn
		if traced && len(ep.failures) == 0 {
			if lastTraced != nil {
				lastTraced.tr.spans = nil // keep only one episode's spans in memory
			}
			lastTraced = ep
		}
		elapsed := time.Since(start)
		if len(eps) >= 2 && (!o.trace || len(eps)%2 == 0) && elapsed+elapsed/time.Duration(len(eps)) > window {
			break
		}
	}
	ref := checkDigests(eps)

	// setup_s is a median: a run with few long episodes times extra input
	// builds so the median rests on at least minSetups samples.
	var extraBuilds []time.Duration
	for n := len(eps); !o.trace && in != nil && n+len(extraBuilds) < minSetups; {
		t0 := time.Now()
		if _, err := w.build(o.seed, o.tiny); err != nil {
			return nil, err
		}
		extraBuilds = append(extraBuilds, time.Since(t0))
	}

	declared, extra := endToEndMetrics(w, eps, extraBuilds)
	rec := &record{Workload: w.name, Seed: o.seed, Trace: o.trace, Cohort: co, Digest: fmt.Sprintf("%016x", ref), Episodes: len(eps)}
	for i, ep := range eps {
		rec.Result.Attempted += ep.clientRounds
		rec.Result.Failed += ep.failedClientRounds()
		for _, f := range ep.failures {
			rec.Failures = append(rec.Failures, fmt.Sprintf("episode %d: %s", i+1, f))
		}
	}
	rec.Result.Attempted = max(rec.Result.Attempted, 1)
	extra.set("failed_ratio", "fraction", float64(rec.Result.Failed)/float64(rec.Result.Attempted))
	printMetrics(out, fmt.Sprintf("end-to-end metrics (untraced episodes; %d episodes in %.1fs)", len(eps), time.Since(start).Seconds()), declared, extra)

	final := declared
	if o.trace {
		layerDecl, layerExtra, err := traceReport(w, o, in, eps, lastTraced, declared, out)
		if err != nil {
			rec.Failures = append(rec.Failures, err.Error())
		}
		final = layerDecl
		for _, n := range layerExtra.names {
			extra.set(n, layerExtra.vals[n].Unit, layerExtra.vals[n].Value)
		}
	}
	rec.Result.Correct = len(rec.Failures) == 0
	rec.Result.Metrics = map[string]value{}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := final.vals[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rec.Failures = append(rec.Failures, "metric "+d.name+" was not measured")
			rec.Result.Correct = false
			v = value{Unit: d.unit}
		}
		rec.Result.Metrics[d.name] = v
	}
	rec.Extra = extra.vals
	printChecks(out, w, eps, rec)
	if err := writeRecord(o.outDir, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// checkDigests requires every successful episode to end with bit-identical
// parameters: the inputs are a pure function of the seed and the engines
// are deterministic, so any difference is a defect — including one the
// traced run's wrappers would cause. It returns the reference digest.
func checkDigests(eps []*episode) uint64 {
	var ref *episode
	for i, ep := range eps {
		if len(ep.failures) > 0 || ep.out == nil {
			continue
		}
		if ref == nil {
			ref = ep
			continue
		}
		if ep.digest != ref.digest {
			ep.fail("final-parameter digest %016x differs from the first episode's %016x (episode %d, traced=%t)", ep.digest, ref.digest, i+1, ep.traced)
		}
	}
	if ref == nil {
		return 0
	}
	return ref.digest
}

// traceReport replays the layers, prints the per-layer metrics, the traced
// spans and the reconciliation table, and writes the spans.
func traceReport(w workload, o options, in *inputs, eps []*episode, last *episode, e2e metricSet, out io.Writer) (metricSet, metricSet, error) {
	if last == nil || in == nil {
		return metricSet{}, metricSet{}, fmt.Errorf("no traced episode completed")
	}
	rt := newTracer(0, 0)
	rt.spans[0].Name = "replay"
	rt.epoch = time.Now()
	L, err := replayLayers(in, rt)
	if err != nil {
		return metricSet{}, metricSet{}, err
	}
	rt.spans[0].End = rt.ns(time.Now())
	var uploads, rounds float64
	for _, ep := range eps {
		if !ep.traced && len(ep.failures) == 0 {
			for _, e := range ep.events {
				uploads += float64(e.Uploaded)
				rounds++
			}
		}
	}
	p50 := e2e.vals["round_ms_p50"].Value
	rows, residual := reconcile(w.engine, in, L, uploads/math.Max(rounds, 1), p50)
	declared, extra := perLayerMetrics(w, in, eps, last, L, residual)
	printMetrics(out, "per-layer metrics (traced episodes and layer replay; codec replayed: "+L.codecName+")", declared, extra)
	printSpans(out, last.tr)
	printReconciliation(out, w.name, rows, residual, p50)

	base := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d", w.name, o.seed))
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return declared, extra, err
	}
	if err := last.tr.writeSpans(base + "-episode.jsonl"); err != nil {
		return declared, extra, err
	}
	if err := rt.writeSpans(base + "-replay.jsonl"); err != nil {
		return declared, extra, err
	}
	fmt.Fprintf(out, "spans written to %s-{episode,replay}.jsonl\n", base)
	return declared, extra, nil
}

func printMetrics(out io.Writer, title string, declared, extra metricSet) {
	fmt.Fprintln(out, title)
	for _, n := range declared.names {
		v := declared.vals[n]
		fmt.Fprintf(out, "  %-38s %14.6g %s\n", n, v.Value, v.Unit)
	}
	if len(extra.names) > 0 {
		fmt.Fprintln(out, " printed only (not every workload has them, or they vary too much across seeds to gate):")
		for _, n := range extra.names {
			v := extra.vals[n]
			fmt.Fprintf(out, "  %-38s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
}

func printSpans(out io.Writer, tr *tracer) {
	stats, roundSelf := tr.spanStats()
	fmt.Fprintf(out, "traced spans (last traced episode, %d rounds; self time = span minus its children)\n", tr.rounds)
	fmt.Fprintf(out, "  %-28s %10s %12s %12s\n", "span", "calls", "total ms", "ms/round")
	for _, s := range stats {
		fmt.Fprintf(out, "  %-28s %10d %12.3f %12.3f\n", s.name, s.calls, ms(s.total), ms(s.total)/float64(tr.rounds))
	}
	fmt.Fprintf(out, "  %-28s %10s %12.3f %12.3f\n", "round self (no child span)", "", ms(roundSelf), ms(roundSelf)/float64(tr.rounds))
}

func printReconciliation(out io.Writer, name string, rows []reconRow, residual, p50 float64) {
	fmt.Fprintf(out, "reconciliation: %s round_ms_p50 = Σ blocking-path layer time + unattributed residual\n", name)
	fmt.Fprintf(out, "  %-52s %12s %12s %12s %8s\n", "layer (indented rows are inside the row above)", "calls/round", "us/call", "ms/round", "share")
	for _, r := range rows {
		label := strings.Repeat("  ", r.depth) + r.layer
		share := ""
		if r.depth == 0 {
			share = fmt.Sprintf("%7.1f%%", 100*r.ms/p50)
		}
		fmt.Fprintf(out, "  %-52s %12.4g %12.4g %12.4f %8s\n", label, r.calls, r.usPer, r.ms, share)
	}
	fmt.Fprintf(out, "  %-52s %12s %12s %12.4f %7.1f%%\n", "unattributed (residual)", "", "", residual, 100*residual/p50)
	fmt.Fprintf(out, "  %-52s %12s %12s %12.4f %7.1f%%\n", "= round_ms_p50", "", "", p50, 100.0)
}

func printChecks(out io.Writer, w workload, eps []*episode, rec *record) {
	var traced int
	for _, ep := range eps {
		if ep.traced {
			traced++
		}
	}
	fmt.Fprintf(out, "checks: %d episodes (%d traced): final-parameter digest %s in every episode; uplink bytes conserved (uploads×payload + skips×16 = CumUplinkBytes)", len(eps), traced, rec.Digest)
	if w.engine == "emu" {
		fmt.Fprint(out, "; wire bytes ≥ application bytes")
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, "per-episode round_ms_p50 (t = traced):")
	for _, ep := range eps {
		var rs []float64
		for _, d := range ep.rounds {
			rs = append(rs, ms(d))
		}
		fmt.Fprintf(out, " %.4g%s", median(rs), map[bool]string{true: "t"}[ep.traced])
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "failed client-rounds: %d of %d\n", rec.Result.Failed, rec.Result.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
}

func writeRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := 0
	if rec.Trace {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, t, time.Now().UnixNano()))
	// JSON cannot carry NaN or ±Inf; an unmeasured printed-only figure is
	// stored as zero.
	c := *rec
	c.Extra = map[string]value{}
	for k, v := range rec.Extra {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		c.Extra[k] = v
	}
	data, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
