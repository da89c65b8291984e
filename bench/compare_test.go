package main

import "testing"

func TestJudgeRow(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower"}
	higher := metricDef{Name: "throughput_qps", Better: "higher"}
	steady := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 8} }
	noisy := func(v float64) summary { return summary{Value: v, Q1: v * 0.8, Q3: v * 1.2, N: 8} }
	for _, tc := range []struct {
		name  string
		d     metricDef
		a, b  summary
		bound float64
		want  string
	}{
		{"within bound", lower, steady(1.00), steady(1.05), 0.15, verdictUnchanged},
		{"slower", lower, steady(1.00), steady(1.30), 0.15, verdictRegression},
		{"faster", lower, steady(1.00), steady(0.70), 0.15, verdictImproved},
		{"fewer q/s", higher, steady(1000), steady(700), 0.15, verdictRegression},
		{"more q/s", higher, steady(1000), steady(1300), 0.15, verdictImproved},
		{"too noisy to call", lower, noisy(1.00), steady(1.05), 0.15, verdictUnresolved},
		{"noisy but clearly worse", lower, noisy(1.00), noisy(1.60), 0.15, verdictRegression},
		{"exact count moved", lower, exact(565), exact(566), 0, verdictRegression},
		{"exact count held", lower, exact(565), exact(565), 0, verdictUnchanged},
	} {
		if _, got := judgeRow(tc.d, tc.a, tc.b, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(seed uint64, cost float64, failed int) resultFile {
		e := map[string]summary{}
		for _, d := range endToEndMetrics {
			e[d.Name] = exact(10)
		}
		e["access_cost_per_query"] = exact(cost)
		return resultFile{Header: header{Seed: seed, NumCPU: 2},
			Workloads: []workloadResult{{Name: wEmbedConj, EndToEnd: e, Attempted: 100, Failed: failed}}}
	}
	verdict := func(rows []compareRow, metric string) string {
		for _, r := range rows {
			if r.Metric == metric {
				return r.Verdict
			}
		}
		return "missing"
	}

	// Same seed: the access cost is exact, one access more regresses.
	rows, err := compareResults(mk(1, 1000, 0), mk(1, 1001, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(rows, "access_cost_per_query"); got != verdictRegression {
		t.Errorf("same seed, cost +1: %s", got)
	}
	// Different seeds: the databases differ, the bound applies.
	rows, err = compareResults(mk(1, 1000, 0), mk(2, 1001, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(rows, "access_cost_per_query"); got != verdictUnchanged {
		t.Errorf("different seeds, cost +0.1%%: %s", got)
	}
	// Any new failure regresses.
	rows, err = compareResults(mk(1, 1000, 0), mk(1, 1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(rows, "failed_ratio"); got != verdictRegression {
		t.Errorf("one new failure: %s", got)
	}
	// A result from a degraded environment is refused.
	bad := mk(1, 1000, 0)
	bad.Header.DegradedEnv = true
	if _, err := compareResults(mk(1, 1000, 0), bad); err == nil {
		t.Error("a degraded_env result was compared")
	}
}
