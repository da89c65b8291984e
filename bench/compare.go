package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of a comparison row.
const (
	verdictUnchanged  = "unchanged"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// compareRow is one end-to-end metric on one workload, baseline a
// against candidate b.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   summary
	// Delta is the change as a share of a, signed so that positive is
	// worse whatever the metric's direction.
	Delta   float64
	Bound   float64
	Verdict string
}

// judgeRow applies a metric's bound. A change beyond the bound is a
// regression or an improvement. Within the bound the metric is
// unchanged only if the runs were steady enough to tell: where either
// side's quartile range is wider than the bound, the row is reported
// as unresolved.
func judgeRow(d metricDef, a, b summary, bound float64) (delta float64, verdict string) {
	if a.Value == 0 {
		if b.Value == 0 {
			return 0, verdictUnchanged
		}
		return 0, verdictUnresolved
	}
	delta = (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		delta = -delta
	}
	spread := func(s summary) float64 {
		if s.Value == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Value
	}
	switch {
	case delta > bound:
		return delta, verdictRegression
	case delta < -bound:
		return delta, verdictImproved
	case spread(a) > bound || spread(b) > bound:
		return delta, verdictUnresolved
	default:
		return delta, verdictUnchanged
	}
}

// compareResults compares every end-to-end metric on every workload of
// the baseline.
func compareResults(a, b resultFile) ([]compareRow, error) {
	if a.Header.DegradedEnv || b.Header.DegradedEnv {
		return nil, fmt.Errorf("a result was measured in a degraded environment (fewer than %d CPUs); refusing to compare", procs)
	}
	byName := make(map[string]workloadResult)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	sameSeed := a.Header.Seed == b.Header.Seed
	var rows []compareRow
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s is missing from the second file", wa.Name)
		}
		for _, d := range endToEndMetrics {
			sa, oka := wa.EndToEnd[d.Name]
			sb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				return nil, fmt.Errorf("%s: metric %s is missing (end-to-end metrics need a run without -trace 1)", wa.Name, d.Name)
			}
			bound := d.Bound
			if sameSeed && d.ExactOnSameSeed {
				bound = 0
			}
			delta, verdict := judgeRow(d, sa, sb, bound)
			rows = append(rows, compareRow{Workload: wa.Name, Metric: d.Name, Unit: d.Unit, A: sa, B: sb, Delta: delta, Bound: bound, Verdict: verdict})
		}
		// Failures have no bound: any increase is a regression.
		fa, fb := float64(wa.Failed)/float64(wa.Attempted), float64(wb.Failed)/float64(wb.Attempted)
		row := compareRow{Workload: wa.Name, Metric: "failed_ratio", Unit: "ratio", A: exact(fa), B: exact(fb), Verdict: verdictUnchanged}
		if fb > fa {
			row.Verdict, row.Delta = verdictRegression, fb-fa
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(buf, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles prints one row per metric and workload and returns a
// non-zero exit code when any row regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readResult(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResult(pathB)
	if err != nil {
		return fail(err)
	}
	rows, err := compareResults(a, b)
	if err != nil {
		return fail(err)
	}
	return printComparison(stdout, rows)
}

func printComparison(w io.Writer, rows []compareRow) int {
	fmt.Fprintf(w, "%-15s %-22s %-9s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "a", "a [q1, q3]", "b", "b [q1, q3]", "worse", "bound", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-22s %-9s %12.4f %25s %12.4f %25s %+7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit,
			r.A.Value, fmt.Sprintf("[%.4f, %.4f]", r.A.Q1, r.A.Q3),
			r.B.Value, fmt.Sprintf("[%.4f, %.4f]", r.B.Q1, r.B.Q3),
			100*r.Delta, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictRegression {
			code = 1
		}
	}
	return code
}
