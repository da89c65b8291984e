package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"fuzzydb/internal/sim"
)

// faginbench runs the binary's run and returns what it wrote and its exit
// code.
func faginbench(args ...string) (stdout, stderr string, code int) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestList(t *testing.T) {
	out, _, code := faginbench("-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	all := sim.All()
	if len(lines) != 2*len(all) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(all), out)
	}
	for i, e := range all {
		if !strings.HasPrefix(lines[2*i], e.ID+" ") || !strings.Contains(lines[2*i], e.Title) || strings.TrimSpace(lines[2*i+1]) != e.Claim {
			t.Errorf("%s listed as %q / %q", e.ID, lines[2*i], lines[2*i+1])
		}
	}
}

func TestRunOneExperiment(t *testing.T) {
	out, _, code := faginbench("-quick", "-run", "E7")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if n := strings.Count(out, "\n## "); !strings.HasPrefix(out, "## E7 — ") || n != 0 {
		t.Fatalf("-run E7 did not print exactly E7's section:\n%s", out)
	}
	rows := regexp.MustCompile(`(?m)^\| \d+ +\| 30 +\| 30 +\| 30 +\|`).FindAllString(out, -1)
	if len(rows) != 3 {
		t.Errorf("want three rows with mean = max = mk = 30, got %d:\n%s", len(rows), out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	out, errOut, code := faginbench("-run", "E99")
	if code != 1 || out != "" || !strings.Contains(errOut, `"E99"`) || !strings.Contains(errOut, "-list") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and a message naming E99 and -list", code, out, errOut)
	}
}

// TestQuickDocument: what the binary writes under -quick is the golden
// internal/sim pins, and the index ahead of its tables has one row per
// registered experiment, each naming a test that exists in sim_test.go.
func TestQuickDocument(t *testing.T) {
	out, _, code := faginbench("-quick")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	golden, err := os.ReadFile("../../internal/sim/testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Error("faginbench -quick does not write internal/sim/testdata/quick.golden (go test ./internal/sim shows where)")
	}
	src, err := os.ReadFile("../../internal/sim/sim_test.go")
	if err != nil {
		t.Fatal(err)
	}
	index, _, ok := strings.Cut(out, "\n## E1 — ")
	if !ok {
		t.Fatalf("no E1 section after the index:\n%.2000s", out)
	}
	rows := regexp.MustCompile(`(?m)^\| (E\d+) .*\| (Test\w+) +\|$`).FindAllStringSubmatch(index, -1)
	all := sim.All()
	if len(rows) != len(all) {
		t.Fatalf("index has %d rows for %d experiments:\n%s", len(rows), len(all), index)
	}
	for i, e := range all {
		id, test := rows[i][1], rows[i][2]
		if id != e.ID {
			t.Errorf("index row %d is %s, want %s", i, id, e.ID)
		}
		if !bytes.Contains(src, []byte("\nfunc "+test+"(t *testing.T)")) {
			t.Errorf("%s: index names %s, which sim_test.go does not define", id, test)
		}
		if !strings.Contains(out, "\n## "+id+" — "+e.Title+"\n") {
			t.Errorf("%s: no section for it after the index", id)
		}
	}
}
