package sim

import (
	"fmt"
	"io"
	"strings"
)

// WriteDocument writes the reproduction report: a generated header, the
// index (one row per experiment), every experiment's section in index
// order, and a pointer to the invariants that are not the paper's.
// table supplies each experiment's result at cfg and is called once per
// experiment, in order, so sections stream as they finish.
func WriteDocument(w io.Writer, cfg Config, table func(Experiment) *Table) error {
	index := &Table{
		ID: "Index", Title: "one row per claim",
		Header: []string{"ID", "paper", "claim", "quantity reported", "shape asserted by (sim_test.go)"},
	}
	for _, e := range All() {
		ref, claim, _ := strings.Cut(e.Claim, ": ")
		index.AddRow(e.ID, ref, claim, e.Title, e.Test)
	}
	if _, err := fmt.Fprintf(w, docHeader, cfg.Seed, cfg.SizeFactor, cfg.TrialFactor); err != nil {
		return err
	}
	if err := index.Render(w); err != nil {
		return err
	}
	for _, e := range All() {
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		if err := table(e).Render(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, docClosing)
	return err
}

const docHeader = `# EXPERIMENTS — the paper's claims as measured tables

Generated by ` + "`go run ./cmd/faginbench > EXPERIMENTS.md`" + `; do not edit. CI regenerates
and diffs it, and ` + "`go test ./internal/sim`" + ` pins the -quick output byte for byte.
Configuration: seed %d, size factor %g, trial factor %g.

The paper is theoretical: its evaluation is Theorems 4.2-7.1 and the
numbered remarks. Each experiment draws the workload its claim is about,
runs the algorithms through the metered access layer and reports exact
middleware costs S + R — functions of the configuration alone.

`

const docClosing = `
## Engineering invariants

Not claims of the paper, so not tabulated here: what executors, 4-way
sharding, the zero-rate fault stack and a cached write mix do to the
tallies of the E1, E2 and skewed (E17) workloads is testdata/tallies.golden,
regenerated and diffed by tallies_test.go under ` + "`go test .`" + `.
`
