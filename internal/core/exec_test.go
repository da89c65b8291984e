package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/cost"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/scoredb"
	"fuzzydb/internal/subsys"
)

// withExec appends the option that selects executor x of a test's
// palette, in which nil stands for serial: no executor option at all.
func withExec(x *Pipelined, opts ...EvalOption) []EvalOption {
	if x != nil {
		opts = append(opts, WithExecutor(*x))
	}
	return opts
}

// execName labels executor x of a test's palette (nil is serial).
func execName(x *Pipelined) string {
	if x == nil {
		return "serial"
	}
	return fmt.Sprintf("pipelined(p=%d,cap=%d)", x.P, x.MaxDepth)
}

// slowSource delays every physical source operation, modeling a remote
// subsystem with per-call latency.
type slowSource struct {
	src   subsys.Source
	delay time.Duration
}

func (s slowSource) Len() int { return s.src.Len() }
func (s slowSource) Entry(rank int) gradedset.Entry {
	time.Sleep(s.delay)
	return s.src.Entry(rank)
}
func (s slowSource) Entries(lo, hi int) []gradedset.Entry {
	time.Sleep(s.delay)
	return s.src.Entries(lo, hi)
}
func (s slowSource) Grade(obj int) float64 {
	time.Sleep(s.delay)
	return s.src.Grade(obj)
}

// blockSource parks every sorted access on a channel until released —
// the wedged-subsystem case.
type blockSource struct {
	src     subsys.Source
	release chan struct{}
	first   bool // block only from the second batch on, so staging engages
	calls   *int
}

func (s blockSource) Len() int                       { return s.src.Len() }
func (s blockSource) Entry(rank int) gradedset.Entry { return s.src.Entry(rank) }
func (s blockSource) Entries(lo, hi int) []gradedset.Entry {
	*s.calls++
	if !s.first || *s.calls > 1 {
		<-s.release
	}
	return s.src.Entries(lo, hi)
}
func (s blockSource) Grade(obj int) float64 { return s.src.Grade(obj) }

func slowSourcesOf(db *scoredb.Database, delay time.Duration) []subsys.Source {
	srcs := sourcesOf(db)
	for i := range srcs {
		srcs[i] = slowSource{src: srcs[i], delay: delay}
	}
	return srcs
}

// TestSerialCancellationIsPrompt cancels an evaluation over slow sources
// mid-flight: the serial executor must notice between accesses and
// return the context error long before the full evaluation (hundreds of
// rounds at 1ms each) would complete.
func TestSerialCancellationIsPrompt(t *testing.T) {
	db := scoredb.Generator{N: 4096, M: 2, Seed: 5}.MustGenerate()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, c, err := Evaluate(ctx, A0{}, slowSourcesOf(db, time.Millisecond), agg.Min, 10)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("results on canceled evaluation: %v", res)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	if c.Sum() == 0 {
		t.Error("partial cost is zero; evaluation never started")
	}
	t.Logf("canceled after %v with partial cost %v", elapsed, c)
}

// TestAccessBudgetStopsWithoutOvershooting runs A₀ under a budget far
// below its natural cost: the evaluation must stop with a BudgetError
// and a partial cost within the budget — never overshooting.
func TestAccessBudgetStopsWithoutOvershooting(t *testing.T) {
	db := scoredb.Generator{N: 4096, M: 3, Seed: 7}.MustGenerate()
	_, full, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 20)
	if err != nil {
		t.Fatal(err)
	}
	budget := float64(full.Sum()) / 10
	res, partial, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 20,
		WithAccessBudget(budget))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %v does not expose *BudgetError", err)
	}
	if be.Limit != budget {
		t.Errorf("BudgetError.Limit = %v, want %v", be.Limit, budget)
	}
	if be.Spent > budget {
		t.Errorf("BudgetError.Spent = %v overshoots budget %v", be.Spent, budget)
	}
	if res != nil {
		t.Errorf("results on budget-stopped evaluation: %v", res)
	}
	if got := float64(partial.Sum()); got > budget {
		t.Errorf("partial cost %v overshoots budget %v", got, budget)
	}
	if partial.Sum() == 0 {
		t.Error("partial cost is zero; budget stopped before any access")
	}
}

// TestAccessBudgetRespectsCostModel prices random access 10x sorted
// access: the weighted spend must stay within the budget under that
// model.
func TestAccessBudgetRespectsCostModel(t *testing.T) {
	db := scoredb.Generator{N: 4096, M: 2, Seed: 8}.MustGenerate()
	model := cost.Model{C1: 1, C2: 10}
	budget := 500.0
	_, partial, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 10,
		WithAccessBudget(budget), WithCostModel(model))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if got := model.Of(partial); got > budget {
		t.Errorf("weighted spend %v overshoots budget %v", got, budget)
	}
}

// batchCounter is a source that batches random access, up to max
// objects a call, and records the size of every batch it serves.
type batchCounter struct {
	subsys.Source
	max     int
	batches []int
}

func (b *batchCounter) MaxGrades() int { return b.max }

func (b *batchCounter) TryGrades(objs []int, out []float64) (int, error) {
	b.batches = append(b.batches, len(objs))
	for i, obj := range objs {
		out[i] = b.Grade(obj)
	}
	return len(objs), nil
}

// TestBudgetedGatherBatches: a budgeted gather reads a batching source
// in batches, one call per MaxGrades misses of a list, and stops with
// the same tallies and the same *BudgetError as over sources that do
// not batch.
func TestBudgetedGatherBatches(t *testing.T) {
	db := scoredb.Generator{N: 2048, M: 3, Seed: 12}.MustGenerate()
	_, full, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 20)
	if err != nil {
		t.Fatal(err)
	}
	const max = 8
	for _, budget := range []float64{2 * float64(full.Sum()), float64(full.Sorted + full.Random/2)} {
		_, want, wantErr := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 20, WithAccessBudget(budget))
		srcs := sourcesOf(db)
		counters := make([]*batchCounter, len(srcs))
		for j := range srcs {
			counters[j] = &batchCounter{Source: srcs[j], max: max}
			srcs[j] = counters[j]
		}
		lists := subsys.CountAll(srcs)
		ec := NewExecContext(context.Background(), lists, WithAccessBudget(budget))
		_, err := (A0{}).TopK(ec, lists, agg.Min, 20)
		if got := subsys.TotalCost(lists); got != want {
			t.Errorf("budget %v: cost %v, unbatched %v", budget, got, want)
		}
		var be, wantBE *BudgetError
		if errors.As(wantErr, &wantBE) != errors.As(err, &be) || be != nil && (be.Spent != wantBE.Spent || be.Need != wantBE.Need) {
			t.Errorf("budget %v: err %v, unbatched %v", budget, err, wantErr)
		}
		if stops := budget < float64(full.Sum()); stops != (be != nil) {
			t.Errorf("budget %v of %v: err %v", budget, full.Sum(), err)
		}
		for j, l := range lists {
			misses := l.Cost().Random
			if got, want := len(counters[j].batches), (misses+max-1)/max; got != want {
				t.Errorf("budget %v, list %d: %d TryGrades calls for %d misses, want %d", budget, j, got, misses, want)
			}
			for _, size := range counters[j].batches {
				if size > max {
					t.Errorf("budget %v, list %d: a batch of %d exceeds MaxGrades %d", budget, j, size, max)
				}
			}
		}
		subsys.ReleaseAll(lists)
	}
}

// TestBudgetAcrossAlgorithms asserts the whole family honors a tiny
// budget: each either finishes within it or stops with ErrBudgetExceeded
// and a partial cost within it.
func TestBudgetAcrossAlgorithms(t *testing.T) {
	db := scoredb.Generator{N: 1024, M: 2, Seed: 9}.MustGenerate()
	algs := []struct {
		alg Algorithm
		f   agg.Func
	}{
		{A0{}, agg.Min},
		{A0Prime{}, agg.Min},
		{TA{}, agg.Min},
		{B0{}, agg.Max},
		{Ullman{}, agg.Min},
		{OrderStat{J: 1}, agg.Max},
		{FilterFirst{}, agg.Min},
		{NaiveSorted{}, agg.Min},
	}
	const budget = 40.0
	for _, tc := range algs {
		srcs := sourcesOf(db)
		if _, isFF := tc.alg.(FilterFirst); isFF {
			l := (scoredb.Generator{N: 1024, M: 1, Law: scoredb.Binary{P: 0.05}, Seed: 10}).MustGenerate().List(0)
			srcs[0] = subsys.FromList(l)
		}
		_, partial, err := Evaluate(context.Background(), tc.alg, srcs, tc.f, 5,
			WithAccessBudget(budget))
		if err != nil && !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: unexpected error %v", tc.alg.Name(), err)
			continue
		}
		if float64(partial.Sum()) > budget {
			t.Errorf("%s: spent %v over budget %v", tc.alg.Name(), partial.Sum(), budget)
		}
	}
}

// TestBudgetedPaginationIsCumulative: a paginator's budget spans pages.
func TestBudgetedPaginationIsCumulative(t *testing.T) {
	db := scoredb.Generator{N: 2048, M: 2, Seed: 11}.MustGenerate()
	p, err := NewPaginator(context.Background(), A0{}, sourcesOf(db), agg.Min, ShardConfig{Budget: 3000})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	pages := 0
	for {
		page, err := p.NextPage(16)
		if errors.Is(err, ErrBudgetExceeded) {
			if got := p.Cost().Sum(); float64(got) > 3000 {
				t.Errorf("cumulative spend %d over budget", got)
			}
			if pages == 0 {
				t.Error("budget exhausted before any page")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			t.Fatal("pagination drained the database without hitting the budget; budget not cumulative?")
		}
		pages++
	}
}

// TestCancelledGatherNeverReturnsSilentlyWrongResults races cancellation
// against the staging and gather fan-outs: each trial must end either with
// a context error or with results identical to the serial reference —
// never a nil error over partially gathered (stale-arena) grades.
func TestCancelledGatherNeverReturnsSilentlyWrongResults(t *testing.T) {
	db := scoredb.Generator{N: 3000, M: 2, Seed: 51}.MustGenerate()
	want, wantCost, err := Evaluate(context.Background(), A0{}, sourcesOf(db), agg.Min, 8)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel() // race the cancellation against the whole evaluation
		res, c, err := Evaluate(ctx, A0{}, sourcesOf(db), agg.Min, 8,
			WithExecutor(Pipelined{P: 2}))
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
			continue
		}
		// A clean return must be the complete, correct evaluation.
		if c != wantCost || len(res) != len(want) {
			t.Fatalf("trial %d: nil error with wrong cost/results: %v %v", trial, c, res)
		}
		for i := range res {
			if res[i] != want[i] {
				t.Fatalf("trial %d: nil error with wrong result %d: %v != %v", trial, i, res[i], want[i])
			}
		}
	}
}

// TestExactBudgetCompletes: a budget equal to an evaluation's exact cost
// must let it finish — reservations stop firing once the cursors are
// exhausted, so the final access does not trip a spurious budget error.
func TestExactBudgetCompletes(t *testing.T) {
	db := scoredb.Generator{N: 50, M: 2, Seed: 53}.MustGenerate()
	counted := subsys.CountAll(sourcesOf(db))
	ref, err := Filter(Background(), counted, agg.Min, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := float64(subsys.TotalCost(counted).Sum())
	subsys.ReleaseAll(counted)

	counted = subsys.CountAll(sourcesOf(db))
	defer subsys.ReleaseAll(counted)
	ec := NewExecContext(context.Background(), counted, WithAccessBudget(exact))
	got, err := Filter(ec, counted, agg.Min, 0)
	if err != nil {
		t.Fatalf("exact budget %v tripped: %v", exact, err)
	}
	if len(got) != len(ref) {
		t.Fatalf("budgeted run returned %d results, want %d", len(got), len(ref))
	}
	// Ullman at its exact cost likewise completes.
	db2 := scoredb.Generator{N: 200, M: 2, Seed: 54}.MustGenerate()
	_, c, err := Evaluate(context.Background(), Ullman{}, sourcesOf(db2), agg.Min, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Evaluate(context.Background(), Ullman{}, sourcesOf(db2), agg.Min, 200,
		WithAccessBudget(float64(c.Sum()))); err != nil {
		t.Fatalf("ullman exact budget tripped: %v", err)
	}
}
