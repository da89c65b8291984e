// Command faginbench writes EXPERIMENTS.md: one table per claim in the
// paper's analysis (Theorems 5.3–7.1 and the numbered remarks), measured
// over synthetic workloads drawn from the Section 5 probabilistic model.
//
// Usage:
//
//	faginbench              # the whole document at full size
//	faginbench -quick       # scaled-down sizes/trials (seconds, not minutes)
//	faginbench -run E9      # one experiment's section
//	faginbench -list        # list the experiment index
//	faginbench -seed 42     # change the master seed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fuzzydb/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("faginbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick = fs.Bool("quick", false, "run scaled-down sizes and trial counts")
		runID = fs.String("run", "", "run a single experiment by id (e.g. E3)")
		list  = fs.Bool("list", false, "list the experiment index and exit")
		seed  = fs.Uint64("seed", 1, "master seed for all workloads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range sim.All() {
			fmt.Fprintf(stdout, "%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}

	cfg := sim.DefaultConfig()
	if *quick {
		cfg = sim.QuickConfig()
	}
	cfg.Seed = *seed

	var err error
	if *runID == "" {
		err = sim.WriteDocument(stdout, cfg, func(e sim.Experiment) *sim.Table { return e.Table(cfg) })
	} else if e, ok := sim.ByID(*runID); ok {
		err = e.Table(cfg).Render(stdout)
	} else {
		err = fmt.Errorf("unknown experiment %q (try -list)", *runID)
	}
	if err != nil {
		fmt.Fprintf(stderr, "faginbench: %v\n", err)
		return 1
	}
	return 0
}
