package subsys

import (
	"errors"
	"reflect"
	"testing"

	"fuzzydb/internal/gradedset"
)

// Every wrapper × the faces it has through the embedded bases (see
// "Writing a wrapper" in doc.go): losing one is a compile error here.
var (
	_ FallibleSource = (*LatencySource)(nil)
	_ BatchGrader    = (*LatencySource)(nil)
	_ UniverseHinter = (*LatencySource)(nil)
	_ ContextSource  = (*LatencySource)(nil)

	_ FallibleSource = (*FaultSource)(nil)
	_ BatchGrader    = (*FaultSource)(nil)
	_ UniverseHinter = (*FaultSource)(nil)
	_ ContextSource  = (*FaultSource)(nil)

	_ FallibleSource = (*ResilientSource)(nil)
	_ BatchGrader    = (*ResilientSource)(nil)
	_ UniverseHinter = (*ResilientSource)(nil)
	_ ContextSource  = (*ResilientSource)(nil)

	_ FallibleSource = (*ShardView)(nil)
	_ BatchGrader    = (*ShardView)(nil)
	_ UniverseHinter = (*ShardView)(nil)
	_ ContextSource  = (*ShardView)(nil)

	_ Source         = (*validatedSource)(nil)
	_ UniverseHinter = (*validatedSource)(nil)
	_ ContextSource  = (*validatedSource)(nil)

	_ Subsystem = (*LatencySubsystem)(nil)
	_ Versioned = (*LatencySubsystem)(nil)

	_ Subsystem = (*FaultSubsystem)(nil)
	_ Versioned = (*FaultSubsystem)(nil)

	_ Subsystem = (*ResilientSubsystem)(nil)
	_ Versioned = (*ResilientSubsystem)(nil)
)

// TestSubsystemWrappersPreserveCapabilities is the Subsystem half of
// TestWrappersPreserveCapabilities, one row per wrapper. Over a Mutable
// each tracks the inner epoch and journal across an update, so cache
// invalidation sees through it; over subsystems without versions it reads as immutable;
// and a backend's optimizer hints — Relational's Selectivity, Vector's
// QueryConjunction — are pinned as not forwarded.
func TestSubsystemWrappersPreserveCapabilities(t *testing.T) {
	const n = 64
	list := descendingList(t, n)
	wrappers := []struct {
		name string
		wrap func(Subsystem) Subsystem
	}{
		{"WithLatency", func(s Subsystem) Subsystem { return WithLatency(s, 0, 0) }},
		{"WithFaults", func(s Subsystem) Subsystem { return WithFaults(s, FaultPlan{}) }},
		{"WithResilience", func(s Subsystem) Subsystem { return WithResilience(s, Policy{}) }},
		{"WithResilience(WithLatency(WithFaults))", func(s Subsystem) Subsystem {
			return WithResilience(WithLatency(WithFaults(s, FaultPlan{}), 0, 0), Policy{})
		}},
	}
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			mut := NewMutable("A", n, 0)
			mut.Set("*", list)
			sub := w.wrap(mut)
			if sub.Attribute() != "A" || sub.Size() != n {
				t.Errorf("Attribute, Size = %q, %d", sub.Attribute(), sub.Size())
			}
			if _, err := sub.Query("nope"); !errors.Is(err, ErrUnknownTarget) {
				t.Errorf("Query of an unknown target: %v, want the inner subsystem's error", err)
			}
			v, ok := sub.(Versioned)
			if !ok {
				t.Fatal("Versioned lost")
			}
			before := v.Epoch()
			if before != mut.Epoch() {
				t.Errorf("Epoch = %d, inner %d", before, mut.Epoch())
			}
			if err := mut.UpdateGrade("*", 5, 0.25); err != nil {
				t.Fatal(err)
			}
			if v.Epoch() != before+1 {
				t.Errorf("Epoch = %d after an update at %d", v.Epoch(), before)
			}
			got, ok := v.UpdatesSince(before)
			want, _ := mut.UpdatesSince(before)
			if !ok || len(want) != 1 || !reflect.DeepEqual(got, want) {
				t.Errorf("UpdatesSince(%d) = %v, %t; inner %v", before, got, ok, want)
			}
			if _, ok := v.UpdatesSince(0); ok {
				t.Error("UpdatesSince(0) ok across the Set that poisoned the journal")
			}

			static := NewStatic("A", n)
			static.Set("*", list)
			rel := NewRelational("A", []string{"x", "y"})
			vec := NewVector("A", [][]float64{{0}, {1}}, map[string][]float64{"t": {0}})
			for _, inner := range []Subsystem{static, rel, vec} {
				sub := w.wrap(inner)
				v := sub.(Versioned)
				if ups, ok := v.UpdatesSince(0); v.Epoch() != 0 || !ok || len(ups) != 0 {
					t.Errorf("over %T: epoch %d, UpdatesSince(0) = %v, %t; want an immutable subsystem", inner, v.Epoch(), ups, ok)
				}
				if _, ok := v.UpdatesSince(1); ok {
					t.Errorf("over %T: UpdatesSince(1) ok at epoch 0", inner)
				}
				if _, ok := sub.(interface{ Selectivity(string) float64 }); ok {
					t.Errorf("over %T: SelectivityEstimator forwarded", inner)
				}
				if _, ok := sub.(interface {
					QueryConjunction([]string) (Source, error)
				}); ok {
					t.Errorf("over %T: ConjunctionEvaluator forwarded", inner)
				}
			}
		})
	}
}

// TestShardViewOverInfallibleParent: a view always has the fallible
// face; over a parent that cannot fail TryEntries delivers the shard's
// whole re-ranked stream with a nil error and the plain Entry past Len
// returns the zero entry. A parent whose span comes back short without
// an error has broken the sorted contract, and the view fails with
// errShortSpan instead of ending its stream early.
func TestShardViewOverInfallibleParent(t *testing.T) {
	const n = 256
	parent := FromList(randomList(t, n, 9))
	r := ShardRange{Lo: 64, Hi: 192}
	src := ShardSources([]Source{parent}, r)[0]
	view, ok := src.(*ShardView)
	if !ok {
		t.Fatalf("ShardSources built a %T, want *ShardView", src)
	}
	if c := Count(src); !c.Fallible() {
		t.Error("Counted over a view does not read through the fallible face")
	}
	span, err := view.TryEntries(0, 16)
	if len(span) != 16 || err != nil {
		t.Fatalf("TryEntries(0, 16) = %d entries, %v", len(span), err)
	}
	for i, e := range span {
		if g, err := view.TryGrade(e.Object); err != nil || g != e.Grade || g != parent.Grade(e.Object+r.Lo) {
			t.Fatalf("rank %d: TryGrade(%d) = %v, %v; sorted access said %v", i, e.Object, g, err, e.Grade)
		}
		if i > 0 && e.Grade > span[i-1].Grade {
			t.Fatalf("rank %d out of order", i)
		}
	}
	if span, err := view.TryEntries(0, r.Len()); len(span) != r.Len() || err != nil {
		t.Fatalf("TryEntries(0, %d) = %d entries, %v; want the whole shard", r.Len(), len(span), err)
	}
	if e := view.Entry(r.Len() + 5); e != (gradedset.Entry{}) {
		t.Errorf("Entry past Len = %v, want the zero entry", e)
	}

	short := NewShardView(shortParent{Source: parent, end: n / 2}, r)
	span, err = short.TryEntries(0, r.Len())
	if !errors.Is(err, errShortSpan) {
		t.Fatalf("view over a short parent: err = %v, want errShortSpan", err)
	}
	if len(span) == 0 || len(span) >= r.Len() {
		t.Errorf("view over a short parent delivered %d of %d ranks; want the prefix the parent delivered", len(span), r.Len())
	}
}

// shortParent is a plain Source whose sorted stream ends at rank end,
// short of Len(), without an error to say so.
type shortParent struct {
	Source
	end int
}

func (s shortParent) Entries(lo, hi int) []gradedset.Entry {
	return s.Source.Entries(min(lo, s.end), min(hi, s.end))
}

// TestCountedShortSpanFails: a Counted over a plain source whose span
// comes back short records errShortSpan as the list's *SourceError at
// the first rank it did not get — only on demand: a readahead shortfall
// stays invisible until a consumer asks for the missing rank.
func TestCountedShortSpanFails(t *testing.T) {
	c := Count(shortParent{Source: FromList(randomList(t, 64, 3)), end: 10})
	if !c.Fallible() {
		t.Fatal("a Counted over a plain source that is not a bare list reads as infallible")
	}
	c.bufferAhead(20)
	if err := c.Err(); err != nil {
		t.Fatalf("readahead recorded %v", err)
	}
	if _, ok := c.EntryAt(9); !ok {
		t.Fatal("rank 9, inside the delivered span, was refused")
	}
	if _, ok := c.EntryAt(10); ok {
		t.Fatal("rank 10, past the short span, was delivered")
	}
	var se *SourceError
	if err := c.Err(); !errors.As(err, &se) || !errors.Is(err, errShortSpan) || se.Rank != 10 || se.Random {
		t.Fatalf("Err() = %v, want a sorted *SourceError at rank 10 wrapping errShortSpan", err)
	}
}
