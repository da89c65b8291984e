package subsys

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"fuzzydb/internal/gradedset"
)

// batchList is a batch-capable parent carrying every optional Source
// capability, the stand-in for wire.RemoteSource: it records the
// batches it was handed and can fail permanently at one object.
type batchList struct {
	ListSource
	max    int
	failAt int // object whose probe fails; -1 never

	mu      sync.Mutex
	batches [][]int
	bound   context.Context
}

func newBatchList(l *gradedset.List, max int) *batchList {
	return &batchList{ListSource: FromList(l), max: max, failAt: -1}
}

func (b *batchList) TryEntry(rank int) (gradedset.Entry, error) { return b.Entry(rank), nil }
func (b *batchList) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	return b.Entries(lo, hi), nil
}
func (b *batchList) TryGrade(obj int) (float64, error) {
	if obj == b.failAt {
		return 0, errors.New("batchList: probe failed")
	}
	return b.Grade(obj), nil
}
func (b *batchList) BindContext(ctx context.Context) {
	b.mu.Lock()
	b.bound = ctx
	b.mu.Unlock()
}
func (b *batchList) MaxGrades() int { return b.max }
func (b *batchList) TryGrades(objs []int, out []float64) (int, error) {
	b.mu.Lock()
	b.batches = append(b.batches, append([]int(nil), objs...))
	b.mu.Unlock()
	for i, obj := range objs {
		g, err := b.TryGrade(obj)
		if err != nil {
			return i, err
		}
		out[i] = g
	}
	return len(objs), nil
}

func (b *batchList) seen() [][]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]int(nil), b.batches...)
}

func upTo(n int) []int {
	objs := make([]int, n)
	for i := range objs {
		objs[i] = i
	}
	return objs
}

// TestWrappersPreserveCapabilities pins that no wrapper silently drops
// an optional capability of the source under it: over a batch-capable
// parent each one still exposes BatchGrader (with the parent's cap),
// ContextSource and FallibleSource, so a wrapped remote source keeps
// per-request contexts, typed failures and batched random access. Over a parent that does not batch
// the same wrappers report the capability absent, and Validated never
// forwards it.
func TestWrappersPreserveCapabilities(t *testing.T) {
	const n, max = 64, 16
	list := descendingList(t, n)
	wrappers := []struct {
		name string
		wrap func(Source) Source
	}{
		{"Resilient", func(s Source) Source { return Resilient(s, Policy{MaxRetries: 1}) }},
		{"FaultSource", func(s Source) Source { return NewFaultSource(s, FaultPlan{}) }},
		{"LatencySource", func(s Source) Source { return NewLatencySource(s, 0) }},
		{"ShardSources", func(s Source) Source {
			return ShardSources([]Source{s}, ShardRange{Lo: 8, Hi: 40})[0]
		}},
		{"Resilient(FaultSource)", func(s Source) Source {
			return Resilient(NewFaultSource(s, FaultPlan{}), Policy{})
		}},
	}
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			parent := newBatchList(list, max)
			src := w.wrap(parent)
			bg, ok := src.(BatchGrader)
			if !ok || bg.MaxGrades() != max {
				t.Errorf("BatchGrader lost (implements: %t), or MaxGrades is not the parent's %d", ok, max)
			}
			if c := Count(src); c.GradeBatch() != max || !c.Fallible() {
				t.Errorf("Counted sees batch %d (want %d), fallible %t", c.GradeBatch(), max, c.Fallible())
			}
			if _, ok := src.(FallibleSource); !ok {
				t.Error("FallibleSource lost")
			}
			cs, ok := src.(ContextSource)
			if !ok {
				t.Fatal("ContextSource lost")
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cs.BindContext(ctx)
			if parent.bound != ctx {
				t.Error("BindContext did not reach the parent")
			}

			// The same wrapper over a parent that does not batch.
			plain := w.wrap(FromList(list))
			if bg, ok := plain.(BatchGrader); ok && bg.MaxGrades() > 0 {
				t.Errorf("capability invented over a plain parent: MaxGrades %d", bg.MaxGrades())
			}
			if got := Count(plain).GradeBatch(); got != 1 {
				t.Errorf("GradeBatch over a plain parent = %d, want 1", got)
			}
		})
	}
	t.Run("Validated", func(t *testing.T) {
		src := Validated(newBatchList(list, max))
		if _, ok := src.(BatchGrader); ok {
			t.Error("Validated forwards BatchGrader; its per-access checks would be bypassed")
		}
		if _, ok := src.(ContextSource); !ok {
			t.Error("ContextSource lost")
		}
	})
}

// TestFaultSourceBatchPinsTheSameObject: a batch is scanned for fault
// sites in order, so it fails at the object a per-object sweep fails
// at, with the grades before it delivered.
func TestFaultSourceBatchPinsTheSameObject(t *testing.T) {
	const n = 200
	list := descendingList(t, n)
	plan := FaultPlan{Seed: 5, Rate: 0.05, Phase: FaultRandomAccess}
	want := -1
	single := NewFaultSource(FromList(list), plan)
	for obj := 0; obj < n; obj++ {
		if _, err := single.TryGrade(obj); err != nil {
			want = obj
			break
		}
	}
	if want < 1 {
		t.Fatalf("first faulty object = %d; pick a seed with a fault site past object 0", want)
	}
	parent := newBatchList(list, n)
	f := NewFaultSource(parent, plan)
	out := make([]float64, n)
	got, err := f.TryGrades(upTo(n), out)
	var fe *FaultError
	if !errors.As(err, &fe) || !fe.Random || fe.Key != want || got != want {
		t.Fatalf("TryGrades = (%d, %v), want the random fault at object %d", got, err, want)
	}
	for obj := 0; obj < got; obj++ {
		if out[obj] != parent.Grade(obj) {
			t.Fatalf("grade of object %d = %v, want %v", obj, out[obj], parent.Grade(obj))
		}
	}
	if b := parent.seen(); len(b) != 1 || len(b[0]) != want {
		t.Errorf("parent saw batches %v, want the one prefix of %d objects", b, want)
	}
}

// TestResilientBatchRetriesTheRemainder: transient faults inside a
// batch are absorbed by retrying only the undelivered remainder, each
// site with its own retry budget; a failure that outlasts the budget
// comes back pinned to its object, with the prefix delivered.
func TestResilientBatchRetriesTheRemainder(t *testing.T) {
	const n = 200
	list := descendingList(t, n)
	parent := newBatchList(list, n)
	f := NewFaultSource(parent, FaultPlan{Seed: 7, Rate: 0.1, Phase: FaultRandomAccess, Transient: 2})
	r := Resilient(f, Policy{MaxRetries: 2})
	out := make([]float64, n)
	if got, err := r.TryGrades(upTo(n), out); got != n || err != nil {
		t.Fatalf("TryGrades = (%d, %v), want all %d grades", got, err, n)
	}
	for obj := 0; obj < n; obj++ {
		if out[obj] != parent.Grade(obj) {
			t.Fatalf("grade of object %d = %v, want %v", obj, out[obj], parent.Grade(obj))
		}
	}
	if r.Stats().Retries == 0 {
		t.Fatal("no retries: the plan injected nothing")
	}
	// Every physical call below the fault layer starts where the last
	// one stopped: nothing already delivered is fetched again.
	next := 0
	for _, b := range parent.seen() {
		if b[0] != next {
			t.Fatalf("a batch starts at object %d, want %d (the first undelivered)", b[0], next)
		}
		next = b[len(b)-1] + 1
	}

	parent = newBatchList(list, n)
	parent.failAt = 37
	r = Resilient(parent, Policy{MaxRetries: 3})
	got, err := r.TryGrades(upTo(n), out)
	if got != 37 || err == nil {
		t.Fatalf("TryGrades = (%d, %v), want the failure pinned to object 37", got, err)
	}
	if re := new(*RetryError); !errors.As(err, re) || (*re).Attempts != 4 {
		t.Errorf("err = %v, want a RetryError after 4 attempts at the stuck object", err)
	}
}

// TestLatencyAndShardViewBatches: a batch costs one simulated call, and
// a shard view translates local ids to the parent's.
func TestLatencyAndShardViewBatches(t *testing.T) {
	const n = 64
	list := descendingList(t, n)
	parent := newBatchList(list, n)
	lat := NewLatencySource(parent, 0)
	out := make([]float64, 10)
	if got, err := lat.TryGrades(upTo(10), out); got != 10 || err != nil {
		t.Fatalf("LatencySource.TryGrades = (%d, %v)", got, err)
	}
	if lat.Calls() != 1 || lat.Items() != 10 {
		t.Errorf("latency paid for %d calls / %d items, want 1 / 10", lat.Calls(), lat.Items())
	}

	parent = newBatchList(list, n)
	view := ShardSources([]Source{parent}, ShardRange{Lo: 20, Hi: 50})[0].(BatchGrader)
	if got, err := view.TryGrades([]int{0, 3, 29}, out); got != 3 || err != nil {
		t.Fatalf("ShardView.TryGrades = (%d, %v)", got, err)
	}
	if b := parent.seen(); !reflect.DeepEqual(b, [][]int{{20, 23, 49}}) {
		t.Errorf("parent saw %v, want the global ids [[20 23 49]]", b)
	}
	for i, obj := range []int{20, 23, 49} {
		if out[i] != parent.Grade(obj) {
			t.Errorf("grade of local %d = %v, want %v", obj-20, out[i], parent.Grade(obj))
		}
	}
}

// lyingBatcher breaks the BatchGrader contract in the two ways Counted
// must normalize.
type lyingBatcher struct {
	*batchList
	short bool
}

func (l lyingBatcher) TryGrades(objs []int, out []float64) (int, error) {
	n, _ := l.batchList.TryGrades(objs, out)
	if l.short {
		return n - 1, nil // short, no error
	}
	return n, errors.New("fault past the batch") // complete, with an error
}

func TestCountedNormalizesBatchContract(t *testing.T) {
	list := descendingList(t, 32)
	out := make([]float64, 8)
	n, err := Count(lyingBatcher{newBatchList(list, 8), true}).TrySourceGrades(upTo(8), out)
	if n != 7 || !errors.Is(err, errShortGrades) {
		t.Errorf("short batch = (%d, %v), want 7 grades and errShortGrades", n, err)
	}
	n, err = Count(lyingBatcher{newBatchList(list, 8), false}).TrySourceGrades(upTo(8), out)
	if n != 8 || err != nil {
		t.Errorf("complete batch with an error = (%d, %v), want success", n, err)
	}
}
