package subsys

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"fuzzydb/internal/gradedset"
)

// pipelineList builds a descending-grade list over the dense universe.
func pipelineList(t *testing.T, n int) *gradedset.List {
	t.Helper()
	entries := make([]gradedset.Entry, n)
	for i := range entries {
		entries[i] = gradedset.Entry{Object: i, Grade: 1 - float64(i)/float64(n+1)}
	}
	l, err := gradedset.NewList(entries)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestPipelinePaysOnDeliveryOnly is the pay-on-delivery invariant at the
// subsys layer: readahead through the background pipeline must not move
// the sorted tally or the grade memo; consumption meters exactly what
// the cursor delivered, whatever the pipeline buffered beyond it.
func TestPipelinePaysOnDeliveryOnly(t *testing.T) {
	c := Count(FromList(pipelineList(t, 256)))
	defer c.Release()
	c.StartPrefetch(64)
	cu := NewCursor(c)
	cu.DemandAhead(50)
	if !cu.AwaitAhead(50, nil) {
		t.Fatal("pipeline did not deliver 50 ranks")
	}
	if got := c.Cost(); got.Sorted != 0 || got.Random != 0 {
		t.Fatalf("prefetching cost %v, want zero", got)
	}
	for i := 0; i < 10; i++ {
		if _, ok := cu.Next(); !ok {
			t.Fatalf("cursor dry at rank %d", i)
		}
	}
	if got := c.Cost(); got.Sorted != 10 {
		t.Fatalf("sorted tally %d after consuming 10, want 10", got.Sorted)
	}
	// Rank 20 was buffered but never delivered: its grade must not be in
	// the memo (a later random access on it must still cost).
	if _, known := c.Known(20); known {
		t.Error("undelivered prefetched rank leaked into the grade memo")
	}
}

// TestPipelineBatchesSortedAccess pins the amortization: draining a list
// through an adaptive pipeline must cost far fewer physical source calls
// than ranks, because the batch depth doubles as the consumer stalls.
func TestPipelineBatchesSortedAccess(t *testing.T) {
	const n = 2048
	lat := NewLatencySource(FromList(pipelineList(t, n)), 20*time.Microsecond)
	c := Count(lat)
	defer c.Release()
	c.StartPrefetch(0)
	cu := NewCursor(c)
	for {
		cu.DemandAhead(1)
		if !cu.AwaitAhead(1, nil) {
			break
		}
		if _, ok := cu.Next(); !ok {
			break
		}
	}
	if got := c.Cost().Sorted; got != n {
		t.Fatalf("consumed %d ranks, want %d", got, n)
	}
	calls := lat.Calls()
	if calls >= n/4 {
		t.Errorf("pipeline issued %d calls for %d ranks; batching did not amortize", calls, n)
	}
	s, ok := c.PrefetchStats()
	if !ok {
		t.Fatal("no pipeline stats")
	}
	if s.MaxDepth <= 1 {
		t.Errorf("adaptive depth never grew: max %d", s.MaxDepth)
	}
	if int64(s.Batches) != calls {
		t.Errorf("stats count %d batches, source saw %d calls", s.Batches, calls)
	}
	t.Logf("%d ranks in %d calls, max depth %d, %d stalls", n, calls, s.MaxDepth, s.Stalls)
}

// TestPipelineFenceDrains: fencing a list mid-stream closes its pipeline
// (no further physical calls once the in-flight batch lands) and the
// cursor reports exhaustion.
func TestPipelineFenceDrains(t *testing.T) {
	lat := NewLatencySource(FromList(pipelineList(t, 1024)), 50*time.Microsecond)
	c := Count(lat)
	c.StartPrefetch(32)
	cu := NewCursor(c)
	cu.DemandAhead(16)
	cu.AwaitAhead(16, nil)
	for i := 0; i < 8; i++ {
		cu.Next()
	}
	c.Fence()
	if _, ok := cu.Next(); ok {
		t.Error("cursor delivered past a fence")
	}
	time.Sleep(5 * time.Millisecond) // let any in-flight batch land
	before := lat.Calls()
	time.Sleep(10 * time.Millisecond)
	if after := lat.Calls(); after != before {
		t.Errorf("pipeline still fetching after fence: %d -> %d calls", before, after)
	}
	if got := c.Cost().Sorted; got != 8 {
		t.Errorf("fenced list's sorted tally %d, want 8", got)
	}
	c.Release()
	if s, ok := c.PrefetchStats(); !ok || s.Batches == 0 {
		t.Errorf("stats lost across Release: %v %v", s, ok)
	}
}

// TestLatencySourceShape pins the wrapper's accounting: one physical
// call per operation, item counts matching the delivered span, and
// tallies (via Counted) identical to the unwrapped source.
func TestLatencySourceShape(t *testing.T) {
	l := pipelineList(t, 64)
	lat := NewLatencySource(FromList(l), 0)
	span := lat.Entries(0, 10)
	if len(span) != 10 {
		t.Fatalf("Entries returned %d", len(span))
	}
	lat.Grade(3)
	lat.Entry(12)
	if lat.Calls() != 3 {
		t.Errorf("Calls() = %d, want 3", lat.Calls())
	}
	if lat.Items() != 12 {
		t.Errorf("Items() = %d, want 12", lat.Items())
	}
}

// wedgeSource parks every Entries call after the first on a channel.
type wedgeSource struct {
	Source
	release chan struct{}
	calls   int
}

func (w *wedgeSource) Entries(lo, hi int) []gradedset.Entry {
	w.calls++
	if w.calls > 1 {
		<-w.release
	}
	return w.Source.Entries(lo, hi)
}

// TestReleaseDoesNotWaitOutWedgedBatch: releasing a list whose pipeline
// has a wedged batch in flight must return promptly — a budget-stopped
// evaluation still releases its lists, and a wedged subsystem must not
// wedge the caller.
func TestReleaseDoesNotWaitOutWedgedBatch(t *testing.T) {
	w := &wedgeSource{Source: FromList(pipelineList(t, 512)), release: make(chan struct{})}
	defer close(w.release) // let the abandoned worker finish
	c := Count(w)
	c.StartPrefetch(64)
	cu := NewCursor(c)
	cu.DemandAhead(1)
	cu.AwaitAhead(1, nil) // first batch lands
	cu.DemandAhead(64)    // second batch goes in flight and wedges
	time.Sleep(5 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Release blocked on a wedged in-flight batch")
	}
}

// spanLog records the [lo, hi) of every batched sorted access on its way
// to the wrapped source, after a small per-call latency (so a consumer
// that runs its buffer dry genuinely stalls on the refill).
type spanLog struct {
	Source
	mu    sync.Mutex
	spans [][2]int
}

func (s *spanLog) Entries(lo, hi int) []gradedset.Entry {
	s.mu.Lock()
	s.spans = append(s.spans, [2]int{lo, hi})
	s.mu.Unlock()
	time.Sleep(100 * time.Microsecond)
	return s.Source.Entries(lo, hi)
}

// TestPipelinePolicyCallByCall pins the readahead policy to the physical
// calls it issues: where the window opens (the stated expectation, less
// what is buffered, under the cap), that the cold-start wait does not
// fire a second speculative batch, that a stated demand is covered by
// one call, that no sliver follows a batch, and that a pinned depth is
// exactly that depth. Each case reads the list the way the algorithms
// do — Next until `consume` ranks are delivered, demanding only when the
// buffer is dry — or states a demand of `stage` ranks up front. The
// worker is joined before the calls are compared, so `want` (the calls
// the sequence must open with) and `calls` (how many there may be in
// all) are exact, not sampled; where `calls` exceeds len(want) the rest
// depends on whether a refill or the consumer got there first, and only
// contiguity and the cap are asserted of it.
func TestPipelinePolicyCallByCall(t *testing.T) {
	type span = [2]int
	cases := []struct {
		name                string
		n, buffered, expect int
		maxDepth            int
		stage, consume      int
		want                []span
		calls               int
	}{
		{name: "expectation covers the run", n: 4096, expect: 253, consume: 214,
			want: []span{{0, 253}}, calls: 1},
		{name: "expectation short of the run", n: 4096, expect: 253, consume: 300,
			want: []span{{0, 253}}, calls: 3},
		{name: "expectation above the cap", n: 4096, expect: 1000, maxDepth: 64, consume: 10,
			want: []span{{0, 64}}, calls: 1},
		{name: "no expectation", n: 4096, maxDepth: 32, consume: 600,
			want: []span{{0, 1}}, calls: 600},
		{name: "stated demand above the cap", n: 64, expect: 253, maxDepth: 16, stage: 64, consume: 64,
			want: []span{{0, 16}, {16, 32}, {32, 48}, {48, 64}}, calls: 4},
		{name: "stated demand", n: 4096, stage: 10, consume: 10,
			want: []span{{0, 10}}, calls: 2},
		{name: "list shorter than the expectation", n: 100, expect: 253, consume: 100,
			want: []span{{0, 100}}, calls: 1},
		{name: "window opens past the buffered prefix", n: 4096, buffered: 50, expect: 253, consume: 214,
			want: []span{{0, 50}, {50, 253}}, calls: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &spanLog{Source: FromList(pipelineList(t, tc.n))}
			c := Count(log)
			defer c.Release()
			c.bufferAhead(tc.buffered)
			c.Expect(tc.expect)
			c.StartPrefetch(tc.maxDepth)
			cu := NewCursor(c)
			if tc.stage > 0 {
				cu.DemandAhead(tc.stage)
				if !cu.AwaitAhead(tc.stage, nil) {
					t.Fatalf("pipeline did not stage %d ranks", tc.stage)
				}
			}
			for i := 0; i < tc.consume; i++ {
				if _, ok := cu.Next(); !ok {
					t.Fatalf("cursor dry at rank %d", i)
				}
			}
			c.StopPrefetch()
			got := log.spans
			if len(got) < len(tc.want) || len(got) > tc.calls || !reflect.DeepEqual(got[:len(tc.want)], tc.want) {
				t.Fatalf("calls %v: want %v first and at most %d in all", got, tc.want, tc.calls)
			}
			longest := tc.maxDepth
			if longest == 0 {
				longest = DefaultPrefetchCap
			}
			for i, s := range got[1:] {
				if s[0] != got[i][1] || s[1]-s[0] > longest {
					t.Errorf("call %v after %v: not contiguous, or longer than the cap %d", s, got[i], longest)
				}
			}
			if got[len(got)-1][1] < tc.consume {
				t.Errorf("calls %v stop short of the %d ranks consumed: a read bypassed the pipeline", got, tc.consume)
			}
			if s, _ := c.PrefetchStats(); tc.expect == 0 && tc.stage == 0 && s.MaxDepth < 2 {
				t.Errorf("unseeded depth never grew on a stalling source: max %d", s.MaxDepth)
			}
		})
	}
}
