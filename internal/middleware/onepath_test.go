package middleware

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"fuzzydb/internal/query"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// genSubsystems is genStore's data without the engine, so one test can
// build several engines (cached, scheduled, wrapped) over the same lists.
func genSubsystems(n, m int, seed uint64) []subsys.Subsystem {
	db := scoredb.Generator{N: n, M: m, Seed: seed}.MustGenerate()
	subsystems := make([]subsys.Subsystem, m)
	for i := range subsystems {
		s := subsys.NewStatic(attrName(i), n)
		s.Set("*", db.List(i))
		subsystems[i] = s
	}
	return subsystems
}

// comparableReport strips what legitimately differs between two evaluations of
// one request — the Plan pointer (compiled laws hold funcs; its algorithm
// and reason are compared by the caller) and the timing-dependent
// pipeline counters, of which only the presence is pinned — so the rest
// of the Report can be compared whole.
func comparableReport(r *Report) (Report, string) {
	cp := *r
	plan := cp.Plan.Algorithm.Name() + " / " + cp.Plan.Reason
	cp.Plan = nil
	if cp.Prefetch != nil {
		cp.Prefetch = &subsys.PipelineStats{}
	}
	return cp, plan
}

// TestDegenerateCasesAreTheSamePath pins, from outside, that the layers
// over the one evaluation are degenerate cases of it and not paths of
// their own: WithDegradedLists(0), a nil scheduler
// and a cache miss each return the very Report of the plain request,
// under every executor.
func TestDegenerateCasesAreTheSamePath(t *testing.T) {
	const n, m, k = 3000, 3, 10
	subsystems := genSubsystems(n, m, 91)
	engine := func(opts ...Option) *Middleware {
		mw, err := New(subsystems, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return mw
	}
	plain := engine()
	q := genConj(m)
	ctx := context.Background()

	executors := []struct {
		name     string
		opts     []QueryOption
		prefetch bool
	}{
		{"serial", nil, false},
		{"parallel4", []QueryOption{WithParallelism(4)}, true},
		{"prefetch", []QueryOption{WithPrefetch(0)}, true},
		{"prefetch+parallel4", []QueryOption{WithPrefetch(0), WithParallelism(4)}, true},
	}
	cases := []struct {
		name string
		eng  *Middleware
		opts []QueryOption
		miss bool // the engine caches: the first answer is a miss
	}{
		{"WithDegradedLists(0)", plain, []QueryOption{WithDegradedLists(0)}, false},
		{"WithScheduler(nil)", engine(WithScheduler(nil)), nil, false},
		{"WithCache miss", nil, nil, true},
	}
	for _, ex := range executors {
		base := append([]QueryOption{TopN(k)}, ex.opts...)
		want, err := plain.Query(ctx, q, base...)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Results) != k || len(want.PerList) != m || want.Cost.Sum() == 0 {
			t.Fatalf("%s: malformed baseline %+v", ex.name, want)
		}
		if (want.Prefetch != nil) != ex.prefetch {
			t.Errorf("%s: Prefetch = %v, want presence %v", ex.name, want.Prefetch, ex.prefetch)
		}
		wantCmp, wantPlan := comparableReport(want)
		for _, tc := range cases {
			eng := tc.eng
			if tc.miss {
				eng = engine(WithCache(8)) // fresh per executor: every first answer is a miss
			}
			got, err := eng.Query(ctx, q, append(append([]QueryOption{}, base...), tc.opts...)...)
			if err != nil {
				t.Fatalf("%s/%s: %v", ex.name, tc.name, err)
			}
			if tc.miss {
				if got.Cache == nil || got.Cache.Hit {
					t.Fatalf("%s/%s: Cache = %+v, want a miss", ex.name, tc.name, got.Cache)
				}
				got.Cache = nil
			}
			gotCmp, gotPlan := comparableReport(got)
			if !reflect.DeepEqual(gotCmp, wantCmp) || gotPlan != wantPlan {
				t.Errorf("%s/%s: report differs from the plain request's:\n got %+v (%s)\nwant %+v (%s)",
					ex.name, tc.name, gotCmp, gotPlan, wantCmp, wantPlan)
			}
		}
	}
}

// TestSpecialistReportsCarryBreakdowns: Filter and TopKInternal run
// through core.Run, and their reports keep the per-list breakdown and,
// under WithPrefetch, the pipeline stats.
func TestSpecialistReportsCarryBreakdowns(t *testing.T) {
	ctx := context.Background()
	gen := genStore(t, 2000, 2, 93)
	cd, _ := cdStore(t)
	red := []query.Atomic{{Attr: "AlbumColor", Target: "red"}}
	for _, prefetch := range []bool{false, true} {
		var opts []QueryOption
		if prefetch {
			opts = append(opts, WithPrefetch(0))
		}
		filtered, err := gen.Filter(ctx, genConj(2), 0.9, opts...)
		if err != nil {
			t.Fatal(err)
		}
		internal, err := cd.TopKInternal(ctx, red, 3, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for name, rep := range map[string]*Report{"Filter": filtered, "TopKInternal": internal} {
			if len(rep.PerList) != len(rep.Plan.Atoms) || rep.Cost.Sum() == 0 {
				t.Errorf("%s (prefetch=%v): PerList %v for %d atoms, cost %v", name, prefetch, rep.PerList, len(rep.Plan.Atoms), rep.Cost)
			}
			var sum int
			for _, c := range rep.PerList {
				sum += c.Sum()
			}
			if sum != rep.Cost.Sum() {
				t.Errorf("%s (prefetch=%v): PerList sums to %d, Cost to %d", name, prefetch, sum, rep.Cost.Sum())
			}
			if (rep.Prefetch != nil) != prefetch {
				t.Errorf("%s (prefetch=%v): Prefetch = %v", name, prefetch, rep.Prefetch)
			}
		}
	}
}

// countingSubsystem counts the atom evaluations an engine asks of it.
type countingSubsystem struct {
	subsys.Subsystem
	queries *atomic.Int64
}

func (s countingSubsystem) Query(target string) (subsys.Source, error) {
	s.queries.Add(1)
	return s.Subsystem.Query(target)
}

// TestCacheMissMaterializesSourcesOnce: a cacheable miss asks each
// subsystem for its atom's source exactly once (it plans once and
// evaluates once), and a hit not at all.
func TestCacheMissMaterializesSourcesOnce(t *testing.T) {
	const m = 3
	var queries atomic.Int64
	subsystems := genSubsystems(500, m, 94)
	for i, s := range subsystems {
		subsystems[i] = countingSubsystem{Subsystem: s, queries: &queries}
	}
	eng, err := New(subsystems, WithCache(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	miss, err := eng.Query(ctx, genConj(m), TopN(5))
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cache == nil || miss.Cache.Hit {
		t.Fatalf("first answer: Cache = %+v, want a miss", miss.Cache)
	}
	if got := queries.Load(); got != m {
		t.Errorf("a miss called Subsystem.Query %d times, want once per atom (%d)", got, m)
	}
	hit, err := eng.Query(ctx, genConj(m), TopN(5))
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cache == nil || !hit.Cache.Hit {
		t.Fatalf("second answer: Cache = %+v, want a hit", hit.Cache)
	}
	if got := queries.Load(); got != m {
		t.Errorf("a hit called Subsystem.Query: %d calls in total, want still %d", got, m)
	}
}
