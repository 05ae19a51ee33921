package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain compares the run records of a base and a change (each a
// directory of records or one record file), metric by metric and workload
// by workload, against the end-to-end bounds. It refuses records from more
// than one host cohort: numbers from different hardware or toolchains are
// never aggregated or compared. Exit status: 0 no regression, 1 a metric
// regressed beyond its bound, 2 refused or unreadable input.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench compare: usage: perfbench compare <base records> <change records>")
		return 2
	}
	base, err := loadRecords(args[0])
	if err == nil {
		var change []record
		change, err = loadRecords(args[1])
		if err == nil {
			err = sameCohort(append(append([]record(nil), base...), change...))
			if err == nil {
				return compareRecords(stdout, base, change)
			}
		}
	}
	fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
	return 2
}

// loadRecords reads one record file, or every record in a directory.
func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	var recs []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return recs, nil
}

// sameCohort refuses a set of records measured on more than one cohort.
func sameCohort(recs []record) error {
	seen := map[cohort]int{}
	for _, r := range recs {
		seen[r.Cohort]++
	}
	if len(seen) <= 1 {
		return nil
	}
	var lines []string
	for c, n := range seen {
		lines = append(lines, fmt.Sprintf("  %d records: %s", n, c))
	}
	sort.Strings(lines)
	return errors.New("refusing to compare records from different host cohorts:\n" + strings.Join(lines, "\n"))
}

// compareRecords prints, per workload and end-to-end metric, the medians,
// the base's spread and the verdict: regressed when the change's median is
// worse than the base's by more than the bound; unresolved when the base's
// own spread exceeds the bound, unless every change run beats every base
// run. It also reports whether same-seed runs kept their model digest.
func compareRecords(out io.Writer, base, change []record) int {
	status := 0
	for _, wl := range workloadNames(base, change) {
		fmt.Fprintf(out, "%s\n  %-32s %12s %12s %9s %9s %7s  %s\n", wl, "metric", "base p50", "change p50", "better by", "base IQR", "bound", "verdict")
		for _, d := range endToEnd {
			b, c := metricValues(base, wl, d.name), metricValues(change, wl, d.name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			mb, mc := median(b), median(c)
			worse := (mc - mb) / mb
			if d.better == "higher" {
				worse = (mb - mc) / mb
			}
			spread := (quantile(b, 0.75) - quantile(b, 0.25)) / mb
			verdict := "ok"
			switch {
			case spread > d.bound && !allBetter(b, c, d.better):
				verdict = "unresolved (base spread exceeds bound)"
			case worse > d.bound:
				verdict = "REGRESSED"
				status = 1
			}
			fmt.Fprintf(out, "  %-32s %12.5g %12.5g %+8.1f%% %8.1f%% %6.0f%%  %s\n", d.name, mb, mc, -100*worse, 100*spread, 100*d.bound, verdict)
		}
		same, diff := digestAgreement(base, change, wl)
		fmt.Fprintf(out, "  model digests, same workload and seed: %d identical, %d changed\n", same, diff)
	}
	return status
}

func workloadNames(sets ...[]record) []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range sets {
		for _, r := range s {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				names = append(names, r.Workload)
			}
		}
	}
	sort.Strings(names)
	return names
}

// metricValues collects one end-to-end metric over the correct untraced
// records of a workload.
func metricValues(recs []record, wl, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != wl || r.Trace || !r.Result.Correct {
			continue
		}
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func allBetter(base, change []float64, better string) bool {
	for _, b := range base {
		for _, c := range change {
			if (better == "lower" && c >= b) || (better == "higher" && c <= b) {
				return false
			}
		}
	}
	return true
}

func digestAgreement(base, change []record, wl string) (same, diff int) {
	digests := map[int64]string{}
	for _, r := range base {
		if r.Workload == wl && r.Result.Correct {
			digests[r.Seed] = r.Digest
		}
	}
	for _, r := range change {
		if d, ok := digests[r.Seed]; ok && r.Workload == wl && r.Result.Correct {
			if d == r.Digest {
				same++
			} else {
				diff++
			}
		}
	}
	return same, diff
}
