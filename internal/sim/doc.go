// Package sim is the evaluation harness: it regenerates, as measured
// tables, every quantitative claim of the paper's analysis sections. The
// paper is theoretical — its "evaluation" is Theorems 4.2–7.1 plus
// explicit numeric remarks — so each experiment realizes the workload
// model of Section 5 (independent uniformly-permuted lists, or the
// correlated/bounded variants of Sections 7 and 9), measures exact
// middleware costs through the metered access layer, and reports the
// quantity the theorem bounds.
//
// The experiments (All, in index order) are the only spelling of the
// claims: WriteDocument renders them as EXPERIMENTS.md, whose index names
// per claim the theorem, the quantity reported and the asserting test.
//
// All experiments are deterministic given Config: the document is
// committed at DefaultConfig and pinned byte for byte at QuickConfig.
package sim
