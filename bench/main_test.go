package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The whole protocol on tiny data: every workload set up, verified
// against the oracle, timed for one short round, traced and laddered.
func TestSmokeRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "run.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-seed", "2", "-traces", dir, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	rf, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Workloads) != 4 {
		t.Fatalf("%d workloads in the result, want 4", len(rf.Workloads))
	}
	if rf.Header.GOMAXPROCS != procs || rf.Header.Clients != clients || rf.Header.Seed != 2 {
		t.Errorf("header = %+v", rf.Header)
	}
	for _, w := range rf.Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: correct=%t failed=%d attempted=%d checks=%+v", w.Name, w.Correct, w.Failed, w.Attempted, w.Checks)
		}
		for _, d := range endToEndMetrics {
			if s, ok := w.EndToEnd[d.Name]; !ok || s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v, want present and positive", w.Name, d.Name, s)
			}
		}
		for _, d := range perLayerMetrics {
			if _, ok := w.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s is missing", w.Name, d.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
		// Layer isolation: the wire does nothing on the embedded
		// workloads, and something on the other two.
		rpcs := w.PerLayer["wire.rpcs_per_query"]
		if embedded := strings.HasPrefix(w.Name, "embed_"); embedded != (rpcs == 0) {
			t.Errorf("%s: wire.rpcs_per_query = %v", w.Name, rpcs)
		}
		if sum, q := w.PerLayer["core.evaluate_us"]+w.PerLayer["middleware.plan_us"]+w.PerLayer["middleware.overhead_us"], w.PerLayer["middleware.query_us"]; sum < q*0.999 || sum > q*1.001 {
			t.Errorf("%s: evaluate + plan + overhead = %v, want middleware.query_us = %v", w.Name, sum, q)
		}
	}

	// A result compared with itself has no regression.
	var cmp bytes.Buffer
	if code := compareFiles(out, out, &cmp, &stderr); code != 0 {
		t.Errorf("comparing a result with itself exited %d:\n%s", code, cmp.String())
	}
}

// One workload, one kind of metric: the last line of standard output is
// the result object BENCHMARK.json's command must print.
func TestResultLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEndMetrics, "1": perLayerMetrics} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "-workload", wServeHot, "-seed", "4", "-trace", trace, "-traces", ""}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-trace %s exited %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool                  `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("-trace %s: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Failed == nil || *line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("-trace %s: %s", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("-trace %s: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("-trace %s: metric %s = %+v, want unit %s", trace, d.Name, m, d.Unit)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// BENCHMARK.json at the repository root is generated by -describe; the
// two must not drift apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var described bytes.Buffer
	if code := printDescription(&described); code != 0 {
		t.Fatal("-describe failed")
	}
	var a, b any
	if err := json.Unmarshal(committed, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(described.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("BENCHMARK.json differs from `bench -describe`; regenerate it")
	}
}
