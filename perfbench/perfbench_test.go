package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// spec is BENCHMARK.json at the repository root.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs a tiny-size episode pair of every workload once per mode and
// seed, sharing the results between the tests below.
var smokeRuns = map[string]*record{}

func smoke(t *testing.T, w workload, seed int64, trace bool) *record {
	t.Helper()
	key := fmt.Sprintf("%s seed=%d trace=%t", w.name, seed, trace)
	if r, ok := smokeRuns[key]; ok {
		return r
	}
	var out bytes.Buffer
	rec, err := run(w, options{seed: seed, seconds: 0.001, trace: trace, tiny: true, outDir: t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", key, err, out.String())
	}
	if !rec.Result.Correct || rec.Result.Failed != 0 {
		t.Fatalf("%s: correct=%t failed=%d failures=%v\n%s", key, rec.Result.Correct, rec.Result.Failed, rec.Failures, out.String())
	}
	smokeRuns[key] = rec
	return rec
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec := smoke(t, w, 1, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rec.Result.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(rec.Result.Metrics), len(want))
			}
		}
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	s := loadSpec(t)
	var names []string
	for _, m := range s.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range s.PerLayer {
		names = append(names, m.Name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.name)
	}
	for _, w := range workloads {
		rec := smoke(t, w, 1, true)
		for n := range rec.Extra {
			names = append(names, n)
		}
	}
	for _, n := range names {
		if !valid.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, valid)
		}
	}
}

// TestDeclarationsMatchSpec pins BENCHMARK.json to the metric lists the
// benchmark emits: same names in the same order, each with a unit and a
// better-direction, every workload declared with the reason the benchmark
// prints, and every metric emitted by at least one workload.
func TestDeclarationsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d/%d metrics, the benchmark %d/%d", len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range s.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark declares %+v", i, m, d)
		}
	}
	for i, m := range s.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark declares %+v", i, m, d)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m.unit == "" || (m.better != "lower" && m.better != "higher") {
			t.Errorf("%s: unit %q better %q", m.name, m.unit, m.better)
		}
	}
	var declared []string
	for _, w := range s.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name+": "+w.why)
	}
	if strings.Join(declared, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", declared, ours)
	}
	emitted := map[string]bool{}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			for n := range smoke(t, w, 1, trace).Result.Metrics {
				emitted[n] = true
			}
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !emitted[m.name] {
			t.Errorf("no workload emits %s", m.name)
		}
	}
}

// TestSeedChangesInputsNotMetricSet: another seed builds other inputs (and
// so another model) but the same declared metric names. (Printed-only
// figures may come and go: time_to_target_s exists only when the target is
// reached.)
func TestSeedChangesInputsNotMetricSet(t *testing.T) {
	for _, w := range workloads {
		a, err := w.build(1, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.build(2, true)
		if err != nil {
			t.Fatal(err)
		}
		if digest(a.clients[0].X.Data) == digest(b.clients[0].X.Data) {
			t.Errorf("%s: seeds 1 and 2 built the same client data", w.name)
		}
		r1, r2 := smoke(t, w, 1, false), smoke(t, w, 2, false)
		if r1.Digest == r2.Digest {
			t.Errorf("%s: seeds 1 and 2 trained the same model %s", w.name, r1.Digest)
		}
		if k1, k2 := keys(r1), keys(r2); k1 != k2 {
			t.Errorf("%s: metric sets differ across seeds: %s vs %s", w.name, k1, k2)
		}
	}
}

func keys(r *record) string {
	var ks []string
	for k := range r.Result.Metrics {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func TestCompareRefusesMixedCohorts(t *testing.T) {
	a := record{Workload: "sim-pop", Cohort: hostCohort()}
	b := a
	b.Cohort.GOMAXPROCS++
	if err := sameCohort([]record{a, a}); err != nil {
		t.Errorf("one cohort refused: %v", err)
	}
	if err := sameCohort([]record{a, b}); err == nil {
		t.Error("mixed cohorts accepted")
	}
	dir := t.TempDir()
	for i, r := range []record{a, b} {
		if err := writeRecord(filepath.Join(dir, fmt.Sprint(i)), &r); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	if code := compareMain([]string{filepath.Join(dir, "0"), filepath.Join(dir, "1")}, &out, &errOut); code != 2 {
		t.Errorf("compare across cohorts exited %d, want 2 (stderr %q)", code, errOut.String())
	}
}
