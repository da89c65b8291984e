package sim

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The sim tests run every experiment at quick scale and assert the
// qualitative shape the paper predicts. They double as integration tests
// of the whole stack (generators → subsystems → algorithms → statistics).
// TestQuickGolden pins the same tables byte for byte, so each experiment
// runs once per test binary.

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// quickTables holds each experiment's table at QuickConfig, computed on
// first use (no test here runs in parallel).
var quickTables = map[string]*Table{}

func quickTable(e Experiment) *Table {
	if quickTables[e.ID] == nil {
		quickTables[e.ID] = e.Table(QuickConfig())
	}
	return quickTables[e.ID]
}

func runExperiment(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return quickTable(e)
}

// TestQuickGolden: the document faginbench -quick writes is
// testdata/quick.golden, byte for byte — every tally of every algorithm
// the experiments run (A0, A0', B0, TA, Ullman, OrderStat, FilterFirst,
// the naive drain, and this package's NRA) as its mean over the quick
// trials. A difference is a changed access count, a changed workload or
// a changed renderer; rerun with -update only once you know which.
func TestQuickGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDocument(&buf, QuickConfig(), quickTable); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("%s is not what this run writes: %s", path, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line at which got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got %q\nwant %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// noteFloat extracts the i-th float embedded in the first note matching
// substr.
func noteFloat(t *testing.T, tab *Table, substr string, idx int) float64 {
	t.Helper()
	for _, n := range tab.Notes {
		if !strings.Contains(n, substr) {
			continue
		}
		var vals []float64
		for _, f := range strings.FieldsFunc(n, func(r rune) bool {
			return !(r == '.' || r == '-' || ('0' <= r && r <= '9'))
		}) {
			if v, err := strconv.ParseFloat(f, 64); err == nil && strings.Contains(f, ".") {
				vals = append(vals, v)
			}
		}
		if idx < len(vals) {
			return vals[idx]
		}
	}
	t.Fatalf("no note matching %q with %d floats in %v", substr, idx+1, tab.Notes)
	return 0
}

func TestRegistryComplete(t *testing.T) {
	// IDs ascend in index order. E17 is not an experiment: it names the
	// skewed workload of testdata/tallies.golden (tallies_test.go).
	prev := 0
	for i, e := range All() {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		num, err := strconv.Atoi(strings.TrimPrefix(e.ID, "E"))
		if err != nil || !strings.HasPrefix(e.ID, "E") || num <= prev || num == 17 {
			t.Errorf("experiment %d has id %s, want E<n> with n > %d, n ≠ 17 (index order)", i, e.ID, prev)
		}
		prev = num
		if ref, claim, ok := strings.Cut(e.Claim, ": "); !ok || ref == "" || claim == "" {
			t.Errorf("%s: claim %q is not \"<theorem or section>: <statement>\"", e.ID, e.Claim)
		}
		// That the function exists is checked where the index is printed
		// (cmd/faginbench's TestQuickDocument).
		if !strings.HasPrefix(e.Test, "Test"+e.ID) {
			t.Errorf("%s: shape test %q is not named Test%s…", e.ID, e.Test, e.ID)
		}
	}
	if _, ok := ByID("E1"); !ok {
		t.Error("ByID(E1) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) succeeded")
	}
}

func TestE1SqrtScaling(t *testing.T) {
	tab := runExperiment(t, "E1")
	exp := noteFloat(t, tab, "fitted exponent", 0)
	if exp < 0.3 || exp > 0.7 {
		t.Errorf("E1 exponent %v outside [0.3, 0.7] (theory 0.5)", exp)
	}
}

func TestE2ExponentRisesWithM(t *testing.T) {
	tab := runExperiment(t, "E2")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var exps []float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, v)
	}
	// m=2 near 0.5, m=5 clearly larger; allow generous noise at quick scale.
	if exps[0] < 0.3 || exps[0] > 0.75 {
		t.Errorf("m=2 exponent %v", exps[0])
	}
	if exps[3] < exps[0] {
		t.Errorf("exponent did not rise with m: %v", exps)
	}
}

func TestE3KScaling(t *testing.T) {
	tab := runExperiment(t, "E3")
	exp := noteFloat(t, tab, "fitted k-exponent", 0)
	if exp < 0.25 || exp > 0.75 {
		t.Errorf("E3 k-exponent %v outside [0.25, 0.75] (theory 0.5)", exp)
	}
}

func TestE4NoExceedancesAtC3(t *testing.T) {
	tab := runExperiment(t, "E4")
	// Rows: c, trials, exceedances, empirical Pr, bound. c=3 is the last.
	last := tab.Rows[len(tab.Rows)-1]
	if last[2] != "0" {
		t.Errorf("exceedances at c=3: %s (paper bound 4e-27)", last[2])
	}
}

func TestE5EnvelopeHolds(t *testing.T) {
	tab := runExperiment(t, "E5")
	violations := 0
	for _, row := range tab.Rows {
		cdfA0, _ := strconv.ParseFloat(row[2], 64)
		cdfTA, _ := strconv.ParseFloat(row[3], 64)
		env, _ := strconv.ParseFloat(row[4], 64)
		// Allow small sampling slack above the envelope.
		if cdfA0 > env+0.05 || cdfTA > env+0.05 {
			violations++
		}
	}
	if violations > 0 {
		t.Errorf("lower-bound envelope violated in %d rows: %v", violations, tab.Rows)
	}
}

func TestE6RatiosBounded(t *testing.T) {
	tab := runExperiment(t, "E6")
	for _, row := range tab.Rows {
		mean, _ := strconv.ParseFloat(row[3], 64)
		if mean < 0.1 || mean > 30 {
			t.Errorf("normalized mean ratio %v drifted out of constant band: %v", mean, row)
		}
	}
}

func TestE7B0Flat(t *testing.T) {
	tab := runExperiment(t, "E7")
	for _, row := range tab.Rows {
		if row[1] != "30" || row[2] != "30" {
			t.Errorf("B0 cost row %v, want exactly mk=30", row)
		}
	}
}

func TestE8MedianBeatsA0(t *testing.T) {
	tab := runExperiment(t, "E8")
	// The median spelled as a query string plans the subset algorithm:
	// the two columns are the same accesses on every row.
	for _, row := range tab.Rows {
		if row[2] != row[1] {
			t.Errorf("N=%s: planned from the query string %s, median algorithm %s", row[0], row[2], row[1])
		}
	}
	// At the largest N, the subset algorithm must be cheaper than A0.
	last := tab.Rows[len(tab.Rows)-1]
	med, _ := strconv.ParseFloat(last[1], 64)
	a0, _ := strconv.ParseFloat(last[3], 64)
	if med >= a0 {
		t.Errorf("median algorithm (%v) not cheaper than A0 (%v) at largest N", med, a0)
	}
	medExp := noteFloat(t, tab, "fitted exponents", 0)
	a0Exp := noteFloat(t, tab, "fitted exponents", 1)
	if medExp >= a0Exp {
		t.Errorf("median exponent %v not below A0 exponent %v", medExp, a0Exp)
	}
}

func TestE9HardQueryLinear(t *testing.T) {
	tab := runExperiment(t, "E9")
	exp := noteFloat(t, tab, "fitted exponent", 0)
	if exp < 0.85 || exp > 1.15 {
		t.Errorf("hard-query exponent %v, want ~1", exp)
	}
	// A0 cost per N stays in a constant band.
	for _, row := range tab.Rows {
		ratio, _ := strconv.ParseFloat(row[4], 64)
		if ratio < 0.4 || ratio > 3.5 {
			t.Errorf("A0 cost/N = %v out of linear band: %v", ratio, row)
		}
	}
}

func TestE10UllmanRegimes(t *testing.T) {
	tab := runExperiment(t, "E10")
	// Bounded-law cost must not grow with N: compare first and last rows.
	first, _ := strconv.ParseFloat(tab.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][1], 64)
	if last > 5*first+20 {
		t.Errorf("bounded-law Ullman cost grew from %v to %v", first, last)
	}
	exp := noteFloat(t, tab, "uniform-case fitted exponent", 0)
	if exp < 0.3 || exp > 0.7 {
		t.Errorf("uniform-case exponent %v, want ~0.5", exp)
	}
}

func TestE11A0PrimeSavings(t *testing.T) {
	tab := runExperiment(t, "E11")
	for _, row := range tab.Rows {
		a0S, _ := strconv.ParseFloat(row[2], 64)
		apS, _ := strconv.ParseFloat(row[4], 64)
		if math.Abs(a0S-apS) > 1e-9 {
			t.Errorf("sorted costs differ: %v", row)
		}
		a0R, _ := strconv.ParseFloat(row[3], 64)
		apR, _ := strconv.ParseFloat(row[5], 64)
		if apR > a0R {
			t.Errorf("A0' random cost above A0: %v", row)
		}
	}
}

func TestE12StrictnessDichotomy(t *testing.T) {
	tab := runExperiment(t, "E12")
	for _, row := range tab.Rows {
		name := row[0]
		strict := row[1] == "true"
		exp, _ := strconv.ParseFloat(row[2], 64)
		if strict && (exp < 0.25 || exp > 0.75) {
			t.Errorf("%s (strict): exponent %v, want ~0.5", name, exp)
		}
		if name == "max" && exp > 0.25 {
			t.Errorf("max: exponent %v, want ~0 (flat)", exp)
		}
	}
}

func TestE13CorrelationMonotone(t *testing.T) {
	tab := runExperiment(t, "E13")
	var costs []float64
	for _, row := range tab.Rows {
		v, _ := strconv.ParseFloat(row[1], 64)
		costs = append(costs, v)
	}
	// rho = -1 must be the most expensive and rho = +1 the cheapest.
	if costs[0] <= costs[len(costs)-1] {
		t.Errorf("anti-correlated cost %v not above correlated cost %v", costs[0], costs[len(costs)-1])
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] > costs[i-1]*1.25 {
			t.Errorf("cost not (weakly) decreasing in correlation: %v", costs)
			break
		}
	}
}

func TestE14TABeatsOrMatchesA0(t *testing.T) {
	tab := runExperiment(t, "E14")
	for _, row := range tab.Rows {
		a0, _ := strconv.ParseFloat(row[2], 64)
		ta, _ := strconv.ParseFloat(row[4], 64)
		if ta > a0*1.05 {
			t.Errorf("TA (%v) costs more than A0 (%v): %v", ta, a0, row)
		}
	}
}

func TestE15WeightedCostInvariance(t *testing.T) {
	tab := runExperiment(t, "E15")
	for _, row := range tab.Rows {
		exp, _ := strconv.ParseFloat(row[2], 64)
		if exp < 0.3 || exp > 0.7 {
			t.Errorf("price model (%s,%s): exponent %v, want ~0.5", row[0], row[1], exp)
		}
	}
}

func TestE16FilterFirstCrossover(t *testing.T) {
	tab := runExperiment(t, "E16")
	// The most selective row must favor filter-first, the least selective
	// must favor A0'.
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	if first[3] != "filter-first" {
		t.Errorf("selectivity %s won by %s, want filter-first", first[0], first[3])
	}
	if last[3] != "A0'" {
		t.Errorf("selectivity %s won by %s, want A0'", last[0], last[3])
	}
}

// TestE18TABeatsA0OffMin: under every law of the planner's default
// branch the table covers, TA reads strictly less than A₀ — the reason TA
// stays in core.
func TestE18TABeatsA0OffMin(t *testing.T) {
	tab := runExperiment(t, "E18")
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 2 laws × 2 m × 2 N", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		a0, _ := strconv.ParseFloat(row[3], 64)
		ta, _ := strconv.ParseFloat(row[4], 64)
		if ta >= a0 {
			t.Errorf("TA (%v) not below A0 (%v): %v", ta, a0, row)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "EX",
		Title:  "demo",
		Claim:  "demo claim",
		Header: []string{"a", "long-header"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", 12345.678, "beyond the header")
	tab.AddRow("short")
	tab.Note("note %d", 7)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	// A row wider than the header widens the grid instead of indexing
	// past it, a narrower one is filled, and no line ends in a blank.
	const want = `## EX — demo

Claim — demo claim

| a     | long-header |                   |
| ----- | ----------- | ----------------- |
| 1     | 2.50        |                   |
| x     | 12346       | beyond the header |
| short |             |                   |

- note 7
`
	if got := buf.String(); got != want {
		t.Errorf("rendered table:\n%s\nwant:\n%s", got, want)
	}
}

func TestConfigScaling(t *testing.T) {
	q := QuickConfig()
	if q.scaleN(1024) < 256 {
		t.Error("scaleN floor broken")
	}
	if q.scaleTrials(4) < 3 {
		t.Error("scaleTrials floor broken")
	}
	d := DefaultConfig()
	if d.scaleN(4096) != 4096 || d.scaleTrials(10) != 10 {
		t.Error("default config rescaled")
	}
}

func TestTheoryCost(t *testing.T) {
	if got := theoryCost(100, 2, 4); math.Abs(got-20) > 1e-9 {
		t.Errorf("theoryCost(100,2,4) = %v, want sqrt(100)*sqrt(4) = 20", got)
	}
	if got := theoryCost(1000, 1, 5); math.Abs(got-5) > 1e-9 {
		t.Errorf("theoryCost m=1 = %v, want k", got)
	}
}
