package subsys

import (
	"time"

	"fuzzydb/internal/gradedset"
)

// LatencySource wraps a Source with simulated access latency, standing
// in for a remote backend (a subsystem reached over a network, a disk
// index): every physical call sleeps PerCall, however many entries or
// grades it delivers. A batched sorted access therefore pays the price
// once for the whole span — the amortization a real cursor-style
// protocol gives — which is exactly the shape that makes readahead depth
// matter: doubling the batch halves the per-rank cost.
//
// The wrapper is stateless, so it is safe for the concurrent reads a
// pipelined executor performs (provided the wrapped source is too, as
// every built-in source is). Access
// tallies are unaffected: latency changes wall-clock, never the Section
// 5 cost of the evaluation.
//
// LatencySource also implements FallibleSource: failures of a fallible
// wrapped source pass through (with the latency still paid — a failed
// round trip is still a round trip), and over an infallible source the
// Try* methods simply never fail, so latency simulation composes with
// the resilience stack in either nesting order.
type LatencySource struct {
	inner
	perCall time.Duration
}

// NewLatencySource wraps src with perCall latency on every physical call.
func NewLatencySource(src Source, perCall time.Duration) *LatencySource {
	return &LatencySource{inner: wrapping(src), perCall: perCall}
}

// pay simulates the latency of one physical call.
func (s *LatencySource) pay() {
	if s.perCall > 0 {
		time.Sleep(s.perCall)
	}
}

// Entry implements Source: one call delivering one entry.
func (s *LatencySource) Entry(rank int) gradedset.Entry {
	s.pay()
	return s.in.Src.Entry(rank)
}

// Entries implements Source: one call delivering hi-lo entries — the
// batch amortization a remote cursor protocol provides.
func (s *LatencySource) Entries(lo, hi int) []gradedset.Entry {
	s.pay()
	return s.in.Src.Entries(lo, hi)
}

// Grade implements Source: one call delivering one grade.
func (s *LatencySource) Grade(obj int) float64 {
	s.pay()
	return s.in.Src.Grade(obj)
}

// TryEntry implements FallibleSource.
func (s *LatencySource) TryEntry(rank int) (gradedset.Entry, error) {
	return oneEntry(s.TryEntries(rank, rank+1))
}

// TryEntries implements FallibleSource: one call, however many of the
// entries it delivers.
func (s *LatencySource) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	s.pay()
	return s.in.Try.TryEntries(lo, hi)
}

// TryGrade implements FallibleSource.
func (s *LatencySource) TryGrade(obj int) (float64, error) {
	s.pay()
	return s.in.Try.TryGrade(obj)
}

// TryGrades implements BatchGrader: one call's latency for the whole
// batch.
func (s *LatencySource) TryGrades(objs []int, out []float64) (int, error) {
	s.pay()
	return s.in.Batch.TryGrades(objs, out)
}

// LatencySubsystem wraps a subsystem so that every Source it produces is
// latency-wrapped — the way to run an engine against simulated remote
// backends (cmd/fuzzyquery's -latency flag).
type LatencySubsystem struct{ wrapped }

// WithLatency wraps sub so its query results simulate remote-backend
// latency (see LatencySource).
func WithLatency(sub Subsystem, perCall time.Duration) *LatencySubsystem {
	return &LatencySubsystem{wrapped{sub, func(_ string, src Source) Source {
		return NewLatencySource(src, perCall)
	}}}
}
