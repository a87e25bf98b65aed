package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spreadOf is one metric's untraced repeats in one result file.
type spreadOf struct {
	median, q1, q3 float64
	n              int
}

// share is the quartile distance as a share of the median: the spread the
// acceptance check holds against the metric's bound.
func (s spreadOf) share() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// collect gathers the untraced values of one workload's metric.
func collect(f *resultFile, workload, name string) spreadOf {
	var vs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[name]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	q1, q3 := quartiles(vs)
	return spreadOf{median: median(vs), q1: q1, q3: q3, n: len(vs)}
}

// failedShare is failed operations over attempted ones, all runs.
func failedShare(f *resultFile) float64 {
	var attempted, failed int64
	for _, r := range f.Runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// judge compares b against baseline a for one metric. worse and better
// need the medians to differ by more than the bound; a pair that does not
// differ that much is same only if both spreads are inside the bound, and
// unresolved otherwise (too noisy to call unchanged).
func judge(d metricDef, a, b spreadOf) (verdict string, worsening float64) {
	if a.median == 0 {
		return "unresolved", 0
	}
	worsening = (b.median - a.median) / a.median
	if d.better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > d.bound:
		return "worse", worsening
	case worsening < -d.bound:
		return "better", worsening
	case a.share() > d.bound || b.share() > d.bound:
		return "unresolved", worsening
	}
	return "same", worsening
}

func readResultFile(path string) (*resultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload and end-to-end metric and
// returns an error (non-zero exit) when any row is worse or b failed a
// larger share of its operations than a.
func compareFiles(pathA, pathB string, out io.Writer) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "a: %s  commit %s  %s  GOMAXPROCS %d  seed %d\n", pathA, a.Header.Commit, a.Header.GoVersion, a.Header.GOMAXPROCS, a.Header.Seed)
	fmt.Fprintf(out, "b: %s  commit %s  %s  GOMAXPROCS %d  seed %d\n", pathB, b.Header.Commit, b.Header.GoVersion, b.Header.GOMAXPROCS, b.Header.Seed)
	fmt.Fprintf(out, "%-12s %-11s %-6s %3s %12s %12s %12s %7s | %12s %12s %12s %7s | %6s %8s  %s\n",
		"workload", "metric", "unit", "n", "a.q1", "a.median", "a.q3", "spread", "b.q1", "b.median", "b.q3", "spread", "bound", "change", "verdict")
	worse := 0
	for i := range workloads {
		for _, d := range endToEnd {
			sa, sb := collect(a, workloads[i].name, d.name), collect(b, workloads[i].name, d.name)
			if sa.n == 0 || sb.n == 0 {
				continue
			}
			verdict, worsening := judge(d, sa, sb)
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-12s %-11s %-6s %3d %12.2f %12.2f %12.2f %6.1f%% | %12.2f %12.2f %12.2f %6.1f%% | %5.0f%% %+7.1f%%  %s\n",
				workloads[i].name, d.name, d.unit, min(sa.n, sb.n),
				sa.q1, sa.median, sa.q3, 100*sa.share(), sb.q1, sb.median, sb.q3, 100*sb.share(),
				100*d.bound, 100*worsening, verdict)
		}
	}
	fa, fb := failedShare(a), failedShare(b)
	fmt.Fprintf(out, "failed operations: a %.6f%%, b %.6f%% of attempted\n", 100*fa, 100*fb)
	fmt.Fprintln(out, "change is b against a, signed so that positive is worse; spread is (q3-q1)/median")
	switch {
	case worse > 0:
		return fmt.Errorf("%d metric x workload rows are worse than the bound allows", worse)
	case fb > fa:
		return fmt.Errorf("b failed a larger share of its operations (%.6f%% against %.6f%%)", 100*fb, 100*fa)
	}
	return nil
}

// printMedians summarizes a full run: the median of every end-to-end
// metric per workload, the numbers reference.json keeps.
func printMedians(f *resultFile) {
	fmt.Printf("medians of %d untraced repeats\n%-12s", collect(f, workloads[0].name, endToEnd[0].name).n, "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %16s", d.name+"["+d.unit+"]")
	}
	fmt.Println()
	for i := range workloads {
		fmt.Printf("%-12s", workloads[i].name)
		for _, d := range endToEnd {
			fmt.Printf(" %16.2f", collect(f, workloads[i].name, d.name).median)
		}
		fmt.Println()
	}
}
