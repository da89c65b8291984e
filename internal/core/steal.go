package core

import (
	"sync"

	"fuzzydb/internal/subsys"
)

const (
	// minStealWidth is the smallest local universe a victim may be asked
	// to split: below it the ceded half cannot amortize the thief's
	// re-scan of the parent prefix.
	minStealWidth = 64
	// minStealRemaining is the least expected remaining work (local ids
	// not yet materialized as ranks) a victim must have to be worth
	// robbing; it is also the floor on the width of a ceded range.
	minStealRemaining = 32
)

// stealTask is one unit of a work-stealing sharded evaluation: a
// contiguous global id range, and the index of the planned shard it
// descends from (for per-shard cost attribution — a stolen range's cost
// still belongs to the shard the planner drew it in).
type stealTask struct {
	r      subsys.ShardRange
	origin int
}

// stealState is the controller's handle on one running task: the
// shard's views (for progress probes and truncation), its shrinking
// local id bound, and the request/done flags. All fields beyond task
// are guarded by the controller's mutex.
type stealState struct {
	task  stealTask
	views []*subsys.ShardView
	cut   int  // local id bound; shrinks when a split is honored
	want  bool // a thief asked this task to split
	done  bool // evaluation returned; no further split possible
}

// stealController is the task queue the shard workers of one evaluation
// drain, and — when stealing is on — the coordinator of work stealing
// between them. The protocol is cooperative: a thief that runs out of
// queued tasks flags the most-behind eligible running task, and that
// task's own evaluation goroutine honors the flag at its next sorted
// round (ExecContext.onStage) by truncating its views at a safe id
// boundary and enqueueing the ceded tail as a fresh task. Idle workers
// block on the condition variable between attempts; every enqueue,
// decline, and task completion broadcasts, and the queue drains exactly
// when the active count hits zero, so no worker can wait forever. With
// stealing off nobody is ever flagged, so the queue is the plan and
// nothing else.
type stealController struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []stealTask
	stealing bool // idle workers rob running tasks; fixed at construction
	run      map[*stealState]struct{}
	active   int   // queued + running tasks
	steals   []int // honored splits per planned shard
	stolen   int   // total honored splits
}

// newStealController seeds the queue with the planned shards, in index
// order.
func newStealController(plan []subsys.ShardRange, stealing bool) *stealController {
	c := &stealController{
		stealing: stealing,
		run:      make(map[*stealState]struct{}),
		steals:   make([]int, len(plan)),
	}
	c.cond = sync.NewCond(&c.mu)
	for i, r := range plan {
		c.queue = append(c.queue, stealTask{r: r, origin: i})
	}
	c.active = len(c.queue)
	return c
}

// next returns the next task to evaluate, blocking while the queue is
// empty but tasks are still running (and, under stealing, flagging a
// victim for a split each time it is about to block). It returns false
// once every task has finished.
func (c *stealController) next() (stealTask, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.queue) > 0 {
			t := c.queue[0]
			c.queue = c.queue[1:]
			return t, true
		}
		if c.active == 0 {
			return stealTask{}, false
		}
		if c.stealing {
			c.request()
		}
		c.cond.Wait()
	}
}

// request flags the most-behind eligible running task for a split.
// Caller holds c.mu. Flagging nothing is fine: the waiter is woken by
// the next completion anyway.
func (c *stealController) request() {
	var best *stealState
	bestRem := -1
	for st := range c.run {
		rem, ok := c.eligible(st)
		if ok && rem > bestRem {
			bestRem = rem
			best = st
		}
	}
	if best != nil {
		best.want = true
	}
}

// eligible reports whether st can usefully split, and its remaining-work
// proxy (local ids minus materialized ranks — the two axes differ, but a
// view's final rank count equals its cut, so the difference tracks how
// much of the stream is still undelivered). Caller holds c.mu.
func (c *stealController) eligible(st *stealState) (int, bool) {
	if st.done || st.want || st.cut < minStealWidth || st.views == nil {
		return 0, false
	}
	filled := 0
	for _, v := range st.views {
		if v == nil {
			return 0, false // opaque source in the mix; progress unknowable
		}
		if f := v.Filled(); f > filled {
			filled = f
		}
	}
	rem := st.cut - filled
	if rem < minStealRemaining {
		return 0, false
	}
	return rem, true
}

// begin registers a task as running; called by the worker once the
// task's views exist.
func (c *stealController) begin(st *stealState) {
	c.mu.Lock()
	c.run[st] = struct{}{}
	c.mu.Unlock()
}

// honor is the victim-side half of a split, run on the task's own
// evaluation goroutine (via ExecContext.onStage): if a thief flagged
// this task and it is still worth splitting, truncate every view at the
// midpoint of the remaining local range and enqueue the ceded tail as a
// new task. Declines also broadcast, so the requesting thief re-picks.
func (c *stealController) honor(st *stealState) {
	c.mu.Lock()
	if !st.want || st.done {
		c.mu.Unlock()
		return
	}
	st.want = false
	if _, ok := c.eligible(st); !ok {
		c.mu.Unlock()
		c.cond.Broadcast()
		return
	}
	// Split the local id axis: cede [mid, cut). Floored at the
	// materialized rank count so the ceded width never exceeds the
	// remaining-work proxy that justified the steal.
	mid := st.cut / 2
	filled := 0
	for _, v := range st.views {
		if f := v.Filled(); f > filled {
			filled = f
		}
	}
	if mid < filled {
		mid = filled
	}
	if st.cut-mid < minStealRemaining {
		c.mu.Unlock()
		c.cond.Broadcast()
		return
	}
	for _, v := range st.views {
		v.Truncate(mid)
	}
	ceded := subsys.ShardRange{Lo: st.task.r.Lo + mid, Hi: st.task.r.Lo + st.cut}
	st.cut = mid
	c.queue = append(c.queue, stealTask{r: ceded, origin: st.task.origin})
	c.active++
	c.steals[st.task.origin]++
	c.stolen++
	c.mu.Unlock()
	c.cond.Broadcast()
}

// freeze ends the task's stealable phase: after it returns, no split
// can touch the task, and the returned bound is the final local id cut
// the task's results must be filtered to before publishing or merging
// (ids at or above it were ceded to thieves, and any the victim
// happened to materialize early are duplicates of a thief's exact
// answers).
func (c *stealController) freeze(st *stealState) int {
	c.mu.Lock()
	st.done = true
	final := st.cut
	c.mu.Unlock()
	return final
}

// finish retires the task: drops it from the running set, decrements
// the active count, and wakes every waiter (idle thieves exit when the
// count hits zero). Safe to call for tasks that never began.
func (c *stealController) finish(st *stealState) {
	c.mu.Lock()
	st.done = true
	delete(c.run, st)
	c.active--
	c.mu.Unlock()
	c.cond.Broadcast()
}
