package middleware

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/query"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// errDown is the terminal cause the degraded-store fixtures fail with.
var errDown = errors.New("subsystem down")

// brokenSource injects one deterministic permanent failure into a
// source: sorted access fails when the span covers failRank, random
// access fails for failObj (either disabled at -1).
type brokenSource struct {
	subsys.Source
	failRank int
	failObj  int
}

func (b *brokenSource) TryEntry(rank int) (gradedset.Entry, error) {
	if rank == b.failRank {
		return gradedset.Entry{}, errDown
	}
	return b.Source.Entry(rank), nil
}

func (b *brokenSource) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	if b.failRank >= 0 && lo <= b.failRank && b.failRank < hi {
		return b.Source.Entries(lo, b.failRank), errDown
	}
	return b.Source.Entries(lo, hi), nil
}

func (b *brokenSource) TryGrade(obj int) (float64, error) {
	if obj == b.failObj {
		return 0, errDown
	}
	return b.Source.Grade(obj), nil
}

// brokenSub wraps a subsystem so every list it serves carries the
// deterministic failure.
type brokenSub struct {
	subsys.Subsystem
	failRank int
	failObj  int
}

func (b *brokenSub) Query(target string) (subsys.Source, error) {
	src, err := b.Subsystem.Query(target)
	if err != nil {
		return nil, err
	}
	return &brokenSource{Source: src, failRank: b.failRank, failObj: b.failObj}, nil
}

// degradeAttrs is the attribute palette of the degradation fixtures.
var degradeAttrs = [3]string{"A", "B", "C"}

// degradeStore builds three static single-target ("x") subsystems over
// one generated scoring database, breaking the listed attributes with a
// permanent sorted-access failure at rank 0.
func degradeStore(t *testing.T, seed uint64, broken ...string) *Middleware {
	t.Helper()
	db := scoredb.Generator{N: 48, M: 3, Law: scoredb.Uniform{}, Seed: seed}.MustGenerate()
	subs := make([]subsys.Subsystem, len(degradeAttrs))
	for i, a := range degradeAttrs {
		st := subsys.NewStatic(a, db.N())
		st.Set("x", db.List(i))
		subs[i] = st
		for _, bad := range broken {
			if bad == a {
				subs[i] = &brokenSub{Subsystem: st, failRank: 0, failObj: -1}
			}
		}
	}
	mw, err := New(subs)
	if err != nil {
		t.Fatal(err)
	}
	return mw
}

func degradeAtom(attr string) query.Atomic { return query.Atomic{Attr: attr, Target: "x"} }

func TestDegradedQueryEqualsFreshQueryOverSurvivors(t *testing.T) {
	// The degradation soundness property: dropping a failed list and
	// re-evaluating must return exactly what a fresh query over the
	// surviving atoms returns — across query shapes, victims, and data.
	shapes := []struct {
		name string
		tree func() query.Node
	}{
		{"and3", func() query.Node {
			return query.And{Children: []query.Node{degradeAtom("A"), degradeAtom("B"), degradeAtom("C")}}
		}},
		{"or3", func() query.Node {
			return query.Or{Children: []query.Node{degradeAtom("A"), degradeAtom("B"), degradeAtom("C")}}
		}},
		{"and-of-or", func() query.Node {
			return query.And{Children: []query.Node{
				degradeAtom("A"),
				query.Or{Children: []query.Node{degradeAtom("B"), degradeAtom("C")}},
			}}
		}},
		// The median, planned OrderStat (TestTopKMedianDegrades pins
		// what its pruned form plans and answers).
		{"median3", func() query.Node {
			return query.MustParse(orderStatForm([]string{`A = "x"`, `B = "x"`, `C = "x"`}, 2, 0))
		}},
	}
	for _, shape := range shapes {
		for _, victim := range degradeAttrs {
			for _, seed := range []uint64{1, 7, 99} {
				label := shape.name + "/victim=" + victim
				faulty := degradeStore(t, seed, victim)
				clean := degradeStore(t, seed)

				rep, err := faulty.Query(context.Background(), shape.tree(), TopN(5), WithDegradedLists(2))
				if err != nil {
					t.Fatalf("%s: degraded query failed: %v", label, err)
				}
				if len(rep.Degraded) != 1 || rep.Degraded[0].Attr != victim {
					t.Fatalf("%s: Degraded = %+v, want one drop of %s", label, rep.Degraded, victim)
				}
				pruned := pruneAtom(shape.tree(), degradeAtom(victim))
				if pruned == nil {
					t.Fatalf("%s: nothing survived pruning", label)
				}
				want, err := clean.Query(context.Background(), pruned, TopN(5))
				if err != nil {
					t.Fatalf("%s: fresh query over survivors failed: %v", label, err)
				}
				if len(rep.Results) != len(want.Results) {
					t.Fatalf("%s: %d results, survivors give %d", label, len(rep.Results), len(want.Results))
				}
				for i := range want.Results {
					if rep.Results[i] != want.Results[i] {
						t.Errorf("%s: result %d: %v, survivors give %v", label, i, rep.Results[i], want.Results[i])
					}
				}
			}
		}
	}
}

func TestPruneAtomShapes(t *testing.T) {
	a, b := degradeAtom("A"), degradeAtom("B")
	cases := []struct {
		name   string
		in     query.Node
		victim query.Atomic
		want   query.Node
	}{
		{"atom-itself", a, a, nil},
		{"other-atom", a, b, a},
		{"dup-occurrences", query.And{Children: []query.Node{a, query.Or{Children: []query.Node{a, b}}}}, a, b},
		{"not-collapses", query.Not{Child: a}, a, nil},
		{"not-survives", query.Not{Child: a}, b, query.Not{Child: a}},
		{"weighted-collapses", query.Weighted{Child: a, Weight: 0.5}, a, nil},
		{"and-to-child", query.And{Children: []query.Node{a, b}}, a, b},
	}
	for _, tc := range cases {
		got := pruneAtom(tc.in, tc.victim)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: pruned to %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestDegradedReportRecordsDropAndCost(t *testing.T) {
	faulty := degradeStore(t, 3, "B")
	clean := degradeStore(t, 3)
	tree := query.And{Children: []query.Node{degradeAtom("A"), degradeAtom("B"), degradeAtom("C")}}

	rep, err := faulty.Query(context.Background(), tree, TopN(4), WithDegradedLists(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) != 1 {
		t.Fatalf("Degraded = %+v, want one entry", rep.Degraded)
	}
	dl := rep.Degraded[0]
	if dl.Attr != "B" || dl.Target != "x" || dl.Attempts != 1 {
		t.Errorf("DegradedList = %+v, want B=x after 1 attempt", dl)
	}
	var se *subsys.SourceError
	if !errors.As(dl.Err, &se) || !errors.Is(dl.Err, errDown) {
		t.Errorf("Err = %v, want *subsys.SourceError wrapping the backend cause", dl.Err)
	}
	// The sunk spend of the failed attempt is folded into the total:
	// Cost = fresh cost over survivors + the recorded sunk cost.
	pruned := query.And{Children: []query.Node{degradeAtom("A"), degradeAtom("C")}}
	want, err := clean.Query(context.Background(), pruned, TopN(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := want.Cost.Add(dl.Cost); rep.Cost != got {
		t.Errorf("Cost = %v, want survivors' %v + sunk %v = %v", rep.Cost, want.Cost, dl.Cost, got)
	}
}

func TestDegradeStopsAtHeadroom(t *testing.T) {
	// Two broken lists but permission to lose only one: the second
	// failure surfaces as the typed error, with the first drop still on
	// the partial report.
	faulty := degradeStore(t, 5, "A", "B")
	tree := query.And{Children: []query.Node{degradeAtom("A"), degradeAtom("B"), degradeAtom("C")}}

	rep, err := faulty.Query(context.Background(), tree, TopN(4), WithDegradedLists(1))
	var se *subsys.SourceError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *subsys.SourceError after headroom ran out", err)
	}
	if rep == nil || len(rep.Degraded) != 1 {
		t.Fatalf("report = %+v, want the first drop recorded", rep)
	}

	// With headroom for both, the query completes over the last list.
	rep, err = faulty.Query(context.Background(), tree, TopN(4), WithDegradedLists(2))
	if err != nil {
		t.Fatalf("maxDrop=2: %v", err)
	}
	if len(rep.Degraded) != 2 {
		t.Fatalf("maxDrop=2: %d drops, want 2", len(rep.Degraded))
	}
}

func TestSingleAtomNeverDegrades(t *testing.T) {
	faulty := degradeStore(t, 2, "A")
	_, err := faulty.Query(context.Background(), degradeAtom("A"), TopN(3), WithDegradedLists(3))
	var se *subsys.SourceError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want the typed error: a query cannot degrade below one atom", err)
	}
}

func TestFailFastWithoutDegradeOption(t *testing.T) {
	faulty := degradeStore(t, 2, "B")
	tree := query.And{Children: []query.Node{degradeAtom("A"), degradeAtom("B")}}
	rep, err := faulty.Query(context.Background(), tree, TopN(3))
	var se *subsys.SourceError
	if !errors.As(err, &se) || !errors.Is(err, errDown) {
		t.Fatalf("err = %v, want *subsys.SourceError wrapping the backend cause", err)
	}
	if se.List != 1 || se.Random {
		t.Errorf("SourceError = %+v, want the sorted failure on list 1", se)
	}
	if rep == nil {
		t.Fatal("no partial-cost report alongside the error")
	}
	if len(rep.Degraded) != 0 {
		t.Errorf("Degraded = %+v without WithDegradedLists", rep.Degraded)
	}
}

func TestTopKMedianDegrades(t *testing.T) {
	// The median is a query like any other, so losing a list prunes its
	// atom and re-plans: A OR (A AND C) OR C absorbs to A OR C, the
	// survivors' max, planned B₀ — not their median.
	faulty := degradeStore(t, 11, "B")
	clean := degradeStore(t, 11)
	median := query.MustParse(orderStatForm([]string{`A = "x"`, `B = "x"`, `C = "x"`}, 2, 0))

	rep, err := faulty.Query(context.Background(), median, TopN(4), WithDegradedLists(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) != 1 || rep.Degraded[0].Attr != "B" {
		t.Fatalf("Degraded = %+v, want one drop of B", rep.Degraded)
	}
	if rep.Plan.Algorithm.Name() != "B0" {
		t.Errorf("degraded plan %s, want B0", rep.Plan.Algorithm.Name())
	}
	want, err := clean.Query(context.Background(), query.Or{Children: []query.Node{degradeAtom("A"), degradeAtom("C")}}, TopN(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Results, want.Results) {
		t.Errorf("degraded median %v, want the survivors' max %v", rep.Results, want.Results)
	}
}

func TestStreamingEntryPointsFailFastDespiteDegradeOption(t *testing.T) {
	// Results and Filter never degrade — a pruned query would
	// change the meaning of an in-flight answer stream or threshold — so
	// the typed error surfaces even with WithDegradedLists.
	faulty := degradeStore(t, 13, "B")
	tree := query.And{Children: []query.Node{degradeAtom("A"), degradeAtom("B")}}

	var se *subsys.SourceError
	sawErr := false
	for _, err := range faulty.Results(context.Background(), tree, TopN(3), WithDegradedLists(2)) {
		if err != nil {
			sawErr = true
			if !errors.As(err, &se) {
				t.Fatalf("Results err = %v, want *subsys.SourceError", err)
			}
			break
		}
	}
	if !sawErr {
		t.Fatal("Results streamed to completion over a broken list")
	}

	if _, err := faulty.Filter(context.Background(), tree, 0.25, WithDegradedLists(2)); !errors.As(err, &se) {
		t.Fatalf("Filter err = %v, want *subsys.SourceError", err)
	}
}
