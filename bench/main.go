// Command bench is the repository's request-path benchmark. It drives
// four workloads through the entry points users call — Engine.Query,
// wire.Client.Query against a fuzzyserve-shaped server, an engine over
// wire-backed sources — checks every answer of a fixed sequence against
// its own brute-force oracle, reports end-to-end metrics from an
// untraced timed pass, and attributes time and counts to each layer in
// a separate traced pass. See README.md.
//
// The whole protocol, every workload:
//
//	go run . -seed 1 -out results/run.json
//
// One workload, one kind of metric, one JSON result line (the form
// BENCHMARK.json's command uses):
//
//	go run . -workload serve_hot -seed 3 -seconds 20 -trace 0
//
// Compare two result files:
//
//	go run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every run is pinned to.
const procs = 2

// header records the environment a result was measured in.
type header struct {
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Clients     int    `json:"clients"`
	Loop        string `json:"loop"`
	Seed        uint64 `json:"seed"`
	Protocol    string `json:"protocol"`
	Network     string `json:"network"`
	DegradedEnv bool   `json:"degraded_env"`
	Started     string `json:"started"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

func newHeader(p protocol) header {
	h := header{
		GoVersion: runtime.Version(), Commit: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clients, Loop: "closed", Seed: p.seed, Protocol: p.String(),
		Network: "loopback TCP on 127.0.0.1:0, no injected latency",
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	// Two closed-loop clients on fewer than two CPUs time each other's
	// scheduling, not the engine.
	h.DegradedEnv = h.NumCPU < procs
	return h
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all four)")
		seed     = fs.Uint64("seed", 1, "seeds database generation, key sequences and writes")
		seconds  = fs.Int("seconds", 0, "timed-pass length per workload in seconds (default: 2 s warm-up + 8 rounds x 4 s)")
		trace    = fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default: both")
		smoke    = fs.Bool("smoke", false, "tiny data, 50-op verify pass, 1 round x 0.5 s: checks the harness, measures nothing")
		out      = fs.String("out", "", "write the full result as JSON to this file")
		traceDir = fs.String("traces", "results", "directory for trace-<workload>.json (sampled spans); empty: do not write")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		describe = fs.Bool("describe", false, "print the BENCHMARK.json this program implements and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		return printDescription(stdout)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	ss := specs(*smoke)
	if *workload != "" {
		var picked []spec
		for _, s := range ss {
			if s.name == *workload {
				picked = append(picked, s)
			}
		}
		if picked == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		ss = picked
	}
	p := protocol{
		seed: *seed, smoke: *smoke, endToEnd: *trace != 1, layers: *trace != 0,
		setUps: 5, warmUp: 2 * time.Second, rounds: 8, roundLen: 4 * time.Second,
		ladder: 5 * time.Second, traceDir: *traceDir,
	}
	if *seconds > 0 {
		// A tenth of the time warms up; the rest is six rounds.
		total := time.Duration(*seconds) * time.Second
		p.warmUp, p.rounds = total/10, 6
		p.roundLen = (total - p.warmUp) / time.Duration(p.rounds)
		p.ladder = total / 2
	}
	if *smoke {
		p.setUps, p.warmUp, p.rounds, p.roundLen, p.ladder = 2, 50*time.Millisecond, 1, 500*time.Millisecond, 160*time.Millisecond
	}
	if !p.endToEnd {
		p.setUps = 1
	}

	runtime.GOMAXPROCS(procs)
	h := newHeader(p)
	hb, _ := json.MarshalIndent(h, "", "  ")
	fmt.Fprintf(stdout, "%s\n", hb)
	if h.DegradedEnv {
		fmt.Fprintf(stdout, "WARNING: degraded_env: %d CPU(s) for %d closed-loop clients; -compare refuses this result\n", h.NumCPU, clients)
	}
	goroutines := runtime.NumGoroutine()

	results, err := run(p, ss, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	leak := leakedGoroutines(goroutines)
	for i := range results {
		results[i].Checks = append(results[i].Checks, checkOf("no_goroutine_leak", leak))
		results[i].Correct = results[i].Correct && leak == nil
	}
	printResults(stdout, results, p)

	if *out != "" {
		buf, err := json.MarshalIndent(resultFile{Header: h, Workloads: results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	ok := true
	for _, r := range results {
		ok = ok && r.Correct
	}
	if *workload != "" && *trace >= 0 {
		printResultLine(stdout, results[0], *trace == 1)
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: FAILED: wrong answers, errors, sheds or a failed check (see above)")
		return 1
	}
	return 0
}

// leakedGoroutines waits for the goroutine count to return to its
// level before the run: servers are shut down and idle connections
// closed, but their goroutines exit asynchronously.
func leakedGoroutines(before int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines at exit, %d at start:\n%s", n, before, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// printResults prints every metric of every workload by name, with its
// unit; end-to-end metrics with quartiles and sample counts.
func printResults(w io.Writer, results []workloadResult, p protocol) {
	for _, r := range results {
		fmt.Fprintf(w, "\n== %s ==\n", r.Name)
		if len(r.EndToEnd) > 0 {
			fmt.Fprintf(w, "  %-34s %14s %-9s %14s %14s %4s\n", "end-to-end metric", "median", "unit", "q1", "q3", "n")
			for _, d := range endToEndMetrics {
				s := r.EndToEnd[d.Name]
				fmt.Fprintf(w, "  %-34s %14.4f %-9s %14.4f %14.4f %4d\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N)
			}
			fmt.Fprintf(w, "  %-34s %14.6f %-9s (%d failed of %d attempted)\n", "failed_ratio", float64(r.Failed)/float64(r.Attempted), "ratio", r.Failed, r.Attempted)
		}
		if p.layers {
			fmt.Fprintf(w, "  %-34s %14s %-9s\n", "per-layer metric", "value", "unit")
			for _, d := range perLayerMetrics {
				fmt.Fprintf(w, "  %-34s %14.4f %-9s\n", d.Name, r.PerLayer[d.Name], d.Unit)
			}
		}
		for _, c := range r.Checks {
			verdict := "ok"
			if !c.OK {
				verdict = "FAILED: " + c.Detail
			}
			fmt.Fprintf(w, "  check %-28s %s\n", c.Name, verdict)
		}
	}
}

// resultLine is the one-workload result format of BENCHMARK.json's
// command: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResultLine(w io.Writer, r workloadResult, layers bool) {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if layers {
		for _, d := range perLayerMetrics {
			line.Metrics[d.Name] = metricValue{Value: r.PerLayer[d.Name], Unit: d.Unit}
		}
	} else {
		for _, d := range endToEndMetrics {
			line.Metrics[d.Name] = metricValue{Value: r.EndToEnd[d.Name].Value, Unit: d.Unit}
		}
	}
	buf, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", buf)
}

// printDescription prints BENCHMARK.json from the metric catalogue, so
// the file and the program cannot drift apart unnoticed.
func printDescription(w io.Writer) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	desc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, s := range specs(false) {
		desc.Workloads = append(desc.Workloads, wl{s.name, strings.TrimSpace(s.why)})
	}
	for _, d := range endToEndMetrics {
		desc.EndToEnd = append(desc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerMetrics {
		desc.PerLayer = append(desc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(desc, "", "  ")
	if err != nil {
		return 1
	}
	fmt.Fprintf(w, "%s\n", buf)
	return 0
}

// runSeconds is the -seconds value BENCHMARK.json asks the driver for.
const runSeconds = 20
