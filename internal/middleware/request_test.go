package middleware

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"fuzzydb/internal/core"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/query"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// genStore builds an engine over a generated scoring database (m static
// attributes A1…Am answering the wildcard target "*").
func genStore(t *testing.T, n, m int, seed uint64) *Middleware {
	t.Helper()
	db := scoredb.Generator{N: n, M: m, Seed: seed}.MustGenerate()
	subsystems := make([]subsys.Subsystem, m)
	for i := 0; i < m; i++ {
		s := subsys.NewStatic(attrName(i), n)
		s.Set("*", db.List(i))
		subsystems[i] = s
	}
	mw, err := New(subsystems)
	if err != nil {
		t.Fatal(err)
	}
	return mw
}

func attrName(i int) string { return string(rune('A'+i)) + "x" }

func genConj(m int) query.Node {
	atoms := make([]query.Atomic, m)
	for i := range atoms {
		atoms[i] = query.Atomic{Attr: attrName(i), Target: "*"}
	}
	return query.Conj(atoms...)
}

// slowSubsystem wraps a subsystem so every source operation of its query
// results sleeps, modeling a slow remote backend.
type slowSubsystem struct {
	subsys.Subsystem
	delay time.Duration
}

type slowTestSource struct {
	src   subsys.Source
	delay time.Duration
}

func (s slowTestSource) Len() int { return s.src.Len() }
func (s slowTestSource) Entry(rank int) gradedset.Entry {
	time.Sleep(s.delay)
	return s.src.Entry(rank)
}
func (s slowTestSource) Entries(lo, hi int) []gradedset.Entry {
	time.Sleep(s.delay)
	return s.src.Entries(lo, hi)
}
func (s slowTestSource) Grade(obj int) float64 {
	time.Sleep(s.delay)
	return s.src.Grade(obj)
}

func (s slowSubsystem) Query(target string) (subsys.Source, error) {
	src, err := s.Subsystem.Query(target)
	if err != nil {
		return nil, err
	}
	return slowTestSource{src: src, delay: s.delay}, nil
}

// TestQueryStringMatchesQuery: the concrete-syntax and parsed-tree
// entry points are the same evaluation.
func TestQueryStringMatchesQuery(t *testing.T) {
	mw, _ := cdStore(t)
	q := query.MustParse(`Artist = "Beatles" AND AlbumColor ~ "red"`)
	want, err := mw.QueryString(context.Background(), `Artist = "Beatles" AND AlbumColor ~ "red"`, TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := mw.Query(context.Background(), q, TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) || got.Cost != want.Cost {
		t.Fatalf("Query = %v %v, QueryString = %v %v", got.Results, got.Cost, want.Results, want.Cost)
	}
	for i := range got.Results {
		if got.Results[i] != want.Results[i] {
			t.Errorf("result %d: %v != %v", i, got.Results[i], want.Results[i])
		}
	}
}

// TestQueryDefaultTopN: with no TopN option the engine returns
// DefaultTopN answers (clamped to the universe).
func TestQueryDefaultTopN(t *testing.T) {
	mw := genStore(t, 500, 2, 21)
	rep, err := mw.Query(context.Background(), genConj(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != DefaultTopN {
		t.Fatalf("got %d results, want DefaultTopN=%d", len(rep.Results), DefaultTopN)
	}
	small, _ := cdStore(t)
	rep, err = small.Query(context.Background(), query.MustParse(`Artist = "Beatles"`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != small.N() {
		t.Fatalf("TopN beyond universe: got %d results, want all %d", len(rep.Results), small.N())
	}
}

// TestQueryParallelismIsCostNeutral: WithParallelism changes wall-clock
// machinery only — answers, total cost, and the per-list breakdown are
// bit-identical to the serial request — and means one thing per shape of
// request: unsharded, the width of the pipelined executor, with or
// without WithPrefetch and clamped by a scheduler's width grant (p ≤ 1
// stays serial even under one); sharded, the cap on shard workers, each
// serial inside.
func TestQueryParallelismIsCostNeutral(t *testing.T) {
	ctx := context.Background()
	for _, m := range []int{2, 3, 4} {
		mw := genStore(t, 600, m, uint64(30+m))
		q := genConj(m)
		serial, err := mw.Query(ctx, q, TopN(7))
		if err != nil {
			t.Fatal(err)
		}
		if serial.Prefetch != nil {
			t.Errorf("m=%d: serial request reports pipelines: %+v", m, serial.Prefetch)
		}
		for _, tc := range []struct {
			name  string
			opts  []QueryOption
			grant int    // scheduler width grant; 0 = none
			exec  string // executor of the unsharded request
			piped bool   // Report.Prefetch is present
		}{
			{"p=3", []QueryOption{WithParallelism(3)}, 0, "pipelined(p=3)", true},
			{"p=3 prefetch=0", []QueryOption{WithParallelism(3), WithPrefetch(0)}, 0, "pipelined(p=3)", true},
			{"p=8 granted 2", []QueryOption{WithParallelism(8)}, 2, "pipelined(p=2)", true},
			{"p=1 granted 8", []QueryOption{WithParallelism(1)}, 8, "serial", false},
			{"p=3 shards=4", []QueryOption{WithParallelism(3), WithShards(4)}, 0, "", false},
		} {
			label := fmt.Sprintf("m=%d/%s", m, tc.name)
			req := newRequest("", append([]QueryOption{TopN(7)}, tc.opts...))
			req.widthCap = tc.grant
			par, err := mw.query(ctx, q, req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(par.Results, serial.Results) {
				t.Errorf("%s: results %v, serial %v", label, par.Results, serial.Results)
			}
			if (par.Prefetch != nil) != tc.piped {
				t.Errorf("%s: Prefetch = %+v, want presence %v", label, par.Prefetch, tc.piped)
			}
			cfg := req.lower()
			if req.Shards > 1 {
				// Sharding pays its own tallies; what the option means here is
				// the worker cap, with no executor overlap inside a shard.
				if par.Shards != 4 || cfg.Parallel != 3 || cfg.Prefetch {
					t.Errorf("%s: %d shards under %+v, want 4 shards on 3 serial workers", label, par.Shards, cfg)
				}
				continue
			}
			if par.Cost != serial.Cost || !reflect.DeepEqual(par.PerList, serial.PerList) {
				t.Errorf("%s: cost %v %v, serial %v %v", label, par.Cost, par.PerList, serial.Cost, serial.PerList)
			}
			// Unsharded, the core configuration is the executor: serial
			// unless Prefetch, and then pipelined at PrefetchWidth.
			exec := "serial"
			if cfg.Prefetch {
				exec = fmt.Sprintf("pipelined(p=%d)", cfg.PrefetchWidth)
			}
			if exec != tc.exec {
				t.Errorf("%s: lowers to executor %q under %+v, want %q", label, exec, cfg, tc.exec)
			}
		}
	}
}

// TestQueryCancellationReturnsCtxErr: a canceled request over a slow
// subsystem returns the context error promptly, with a partial-cost
// report.
func TestQueryCancellationReturnsCtxErr(t *testing.T) {
	db := scoredb.Generator{N: 2048, M: 2, Seed: 23}.MustGenerate()
	subsystems := make([]subsys.Subsystem, 2)
	for i := 0; i < 2; i++ {
		s := subsys.NewStatic(attrName(i), 2048)
		s.Set("*", db.List(i))
		subsystems[i] = slowSubsystem{Subsystem: s, delay: time.Millisecond}
	}
	mw, err := New(subsystems)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, err := mw.Query(ctx, genConj(2), TopN(10))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	if rep == nil {
		t.Fatal("no partial report on cancellation")
	}
	if rep.Results != nil {
		t.Errorf("canceled report has results: %v", rep.Results)
	}
	if rep.Cost.Sum() == 0 {
		t.Error("partial report shows zero cost; evaluation never started")
	}
}

// TestQueryBudgetPartialReport: WithAccessBudget stops the evaluation
// with ErrBudgetExceeded and a partial-cost report that never overshoots
// the budget.
func TestQueryBudgetPartialReport(t *testing.T) {
	mw := genStore(t, 2048, 3, 29)
	q := genConj(3)
	full, err := mw.Query(context.Background(), q, TopN(10))
	if err != nil {
		t.Fatal(err)
	}
	budget := float64(full.Cost.Sum()) / 8
	rep, err := mw.Query(context.Background(), q, TopN(10), WithAccessBudget(budget))
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want core.ErrBudgetExceeded", err)
	}
	var be *core.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %v does not expose *core.BudgetError", err)
	}
	if rep == nil {
		t.Fatal("no partial report on budget stop")
	}
	if got := float64(rep.Cost.Sum()); got > budget || got == 0 {
		t.Errorf("partial cost %v not in (0, budget %v]", got, budget)
	}
	if rep.Results != nil {
		t.Errorf("budget-stopped report has results: %v", rep.Results)
	}
	// The weighted form: random accesses priced 5x shift where the stop
	// lands, but never past the budget.
	rep, err = mw.Query(context.Background(), q, TopN(10),
		WithAccessBudget(budget), WithCostModel(cost.Model{C1: 1, C2: 5}))
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("weighted: err = %v, want core.ErrBudgetExceeded", err)
	}
	if got := (cost.Model{C1: 1, C2: 5}).Of(rep.Cost); got > budget {
		t.Errorf("weighted spend %v overshoots budget %v", got, budget)
	}
}

// TestResultsStreaming: the iterator yields the same answers, in the
// same order, as one big Query, and resumes across page boundaries.
func TestResultsStreaming(t *testing.T) {
	mw := genStore(t, 400, 2, 31)
	q := genConj(2)
	want, err := mw.Query(context.Background(), q, TopN(25))
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Result
	for r, err := range mw.Results(context.Background(), q, TopN(7)) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
		if len(got) == 25 {
			break
		}
	}
	if len(got) != 25 {
		t.Fatalf("streamed %d results, want 25", len(got))
	}
	for i := range got {
		if got[i] != want.Results[i] {
			t.Errorf("stream result %d = %v, want %v", i, got[i], want.Results[i])
		}
	}
}

// TestResultsStreamsWholeUniverse: left alone, the stream drains all N
// objects exactly once.
func TestResultsStreamsWholeUniverse(t *testing.T) {
	mw := genStore(t, 64, 2, 37)
	seen := make(map[int]bool)
	count := 0
	for r, err := range mw.Results(context.Background(), genConj(2), TopN(10)) {
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.Object] {
			t.Fatalf("object %d streamed twice", r.Object)
		}
		seen[r.Object] = true
		count++
	}
	if count != 64 {
		t.Fatalf("streamed %d results, want the whole universe of 64", count)
	}
}

// TestResultsErrorYield: planning errors surface as a single yielded
// error.
func TestResultsErrorYield(t *testing.T) {
	mw, _ := cdStore(t)
	yields := 0
	for _, err := range mw.Results(context.Background(), query.MustParse(`Genre = "rock"`)) {
		yields++
		if !errors.Is(err, ErrUnknownAttribute) {
			t.Fatalf("err = %v, want ErrUnknownAttribute", err)
		}
	}
	if yields != 1 {
		t.Fatalf("got %d yields, want exactly one error yield", yields)
	}
}

// TestResultsCancellationStopsStream: canceling the context mid-stream
// ends the iteration with a context error.
func TestResultsCancellationStopsStream(t *testing.T) {
	mw := genStore(t, 512, 2, 41)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lastErr error
	streamed := 0
	for _, err := range mw.Results(ctx, genConj(2), TopN(5)) {
		if err != nil {
			lastErr = err
			break
		}
		streamed++
		if streamed == 5 {
			cancel()
		}
	}
	if !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled", lastErr)
	}
}

// TestWithAlgorithmPinsThePlan: WithAlgorithm overrides the planner and
// the report says so.
func TestWithAlgorithmPinsThePlan(t *testing.T) {
	mw := genStore(t, 300, 2, 43)
	q := genConj(2)
	rep, err := mw.Query(context.Background(), q, TopN(5), WithAlgorithm(core.TA{}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan.Algorithm.Name() != "TA" {
		t.Fatalf("plan algorithm = %s, want TA", rep.Plan.Algorithm.Name())
	}
	// Pinned algorithm answers must agree with the planner's (same query,
	// exact algorithms).
	planned, err := mw.Query(context.Background(), q, TopN(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		if rep.Results[i] != planned.Results[i] {
			t.Errorf("result %d: pinned %v != planned %v", i, rep.Results[i], planned.Results[i])
		}
	}
}

// TestTypedErrors: the middleware's errors carry their context for
// errors.As while remaining errors.Is-compatible with the sentinels.
func TestTypedErrors(t *testing.T) {
	mw, _ := cdStore(t)
	_, err := mw.Query(context.Background(), query.MustParse(`Genre = "rock"`))
	if !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("err = %v, want errors.Is ErrUnknownAttribute", err)
	}
	var uae *UnknownAttributeError
	if !errors.As(err, &uae) {
		t.Fatalf("err %v does not expose *UnknownAttributeError", err)
	}
	if uae.Attr != "Genre" {
		t.Errorf("UnknownAttributeError.Attr = %q, want %q", uae.Attr, "Genre")
	}

	_, err = New([]subsys.Subsystem{
		subsys.NewRelational("Artist", []string{"a", "b", "c"}),
		subsys.NewRelational("Genre", []string{"x", "y"}),
	})
	if !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("err = %v, want errors.Is ErrSizeMismatch", err)
	}
	var sme *SizeMismatchError
	if !errors.As(err, &sme) {
		t.Fatalf("err %v does not expose *SizeMismatchError", err)
	}
	if sme.Attr != "Genre" || sme.Got != 2 || sme.Want != 3 {
		t.Errorf("SizeMismatchError = %+v, want Genre/2/3", sme)
	}
}

// TestPinnedB0RefusedForMultiListPagination: a planner-chosen B0 falls
// back to A0 silently, but an explicit WithAlgorithm(B0) pin on a
// multi-atom stream is refused loudly.
func TestPinnedB0RefusedForMultiListPagination(t *testing.T) {
	mw, _ := cdStore(t)
	q := query.MustParse(`Artist = "Beatles" OR AlbumColor ~ "red"`)
	first := func(opts ...QueryOption) error {
		for _, err := range mw.Results(context.Background(), q, opts...) {
			return err
		}
		return nil
	}
	// Planner-chosen B0: streams fine via the A0 fallback.
	if err := first(); err != nil {
		t.Fatalf("planner-chosen B0 should fall back: %v", err)
	}
	// Explicit pin: refused.
	if err := first(WithAlgorithm(core.B0{})); err == nil {
		t.Fatal("pinned B0 over 2 lists paginated silently; want a loud refusal")
	}
}
