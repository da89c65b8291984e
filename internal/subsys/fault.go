package subsys

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fuzzydb/internal/gradedset"
)

// FaultPhase selects which access mode a fault plan targets. The zero
// value targets both modes.
type FaultPhase uint8

const (
	// FaultSortedAccess injects faults into sorted access only.
	FaultSortedAccess FaultPhase = 1 << iota
	// FaultRandomAccess injects faults into random access only.
	FaultRandomAccess
	// FaultBoth injects faults into both access modes (the default).
	FaultBoth = FaultSortedAccess | FaultRandomAccess
)

// FaultPlan is a seeded, deterministic description of when a FaultSource
// fails. Fault sites are keyed by position, not by call: a sorted fault
// fires at a fixed rank and a random fault at a fixed object id, decided
// by hashing (Seed, mode, key), so the set of faulty sites is identical
// however accesses are batched, interleaved, or sharded — the property
// the cross-executor equivalence fuzz relies on.
type FaultPlan struct {
	// Seed keys the deterministic site selection.
	Seed uint64
	// Rate is the per-site fault probability in [0, 1].
	Rate float64
	// Phase restricts faults to one access mode; zero targets both.
	Phase FaultPhase
	// Transient > 0 makes every fault transient: a faulty site fails
	// its first Transient attempts and then succeeds forever after, so
	// a retry layer with MaxRetries ≥ Transient hides it completely.
	// 0 makes faults permanent.
	Transient int
	// FailAfter > 0 additionally fails every access past the N-th
	// physical access, permanently. Unlike rate faults this is keyed on
	// the access COUNT, which differs across executors and batchings —
	// use it for exhaustion scenarios, never in equivalence tests.
	FailAfter int
	// Wedge makes every injected fault sleep this long before
	// returning, simulating a hung call (pair with a resilience
	// PerAccessTimeout to exercise the timeout path).
	Wedge time.Duration
}

// FaultError is the error a FaultSource injects. It implements the
// Transient() capability the resilience layer retries on.
type FaultError struct {
	// Random reports the access mode the fault fired in.
	Random bool
	// Key is the faulty rank (sorted) or object id (random); −1 for a
	// FailAfter exhaustion fault.
	Key int
	// Temporary reports whether the fault clears after enough retries.
	Temporary bool
}

// Error implements error.
func (e *FaultError) Error() string {
	mode, kind := "sorted", "permanent"
	if e.Random {
		mode = "random"
	}
	if e.Temporary {
		kind = "transient"
	}
	if e.Key < 0 {
		return "subsys: injected fault: source exhausted (fail-after limit)"
	}
	return fmt.Sprintf("subsys: injected %s %s-access fault at %d", kind, mode, e.Key)
}

// Transient reports whether a retry can clear the fault.
func (e *FaultError) Transient() bool { return e.Temporary }

// FaultSource wraps any Source with deterministic fault injection per
// its FaultPlan, exposing the failures through the FallibleSource face.
// The plain Source methods forward to the wrapped source untouched —
// fault injection is observable only through Try* (which Counted always
// prefers), so an unaware consumer sees correct data rather than a
// panic.
//
// Transient-fault bookkeeping is per site (a mutex-guarded attempt
// count per faulty rank/object), so a site clears after exactly
// Transient failed attempts no matter which goroutine or batch touched
// it — retried runs converge to the fault-free data and tallies. The
// counters are stateful: equivalence tests must build a fresh
// FaultSource per run.
type FaultSource struct {
	inner
	plan FaultPlan

	mu       sync.Mutex
	attempts map[faultKey]int

	accesses atomic.Int64 // physical accesses (drives FailAfter)
	injected atomic.Int64 // faults injected so far
}

type faultKey struct {
	random bool
	key    int
}

// NewFaultSource wraps src with the given fault plan.
func NewFaultSource(src Source, plan FaultPlan) *FaultSource {
	f := &FaultSource{inner: wrapping(src), plan: plan}
	if plan.Transient > 0 {
		f.attempts = make(map[faultKey]int)
	}
	return f
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap,
// well-mixed 64-bit hash used to decide fault sites.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faulty decides whether the plan marks the given site as a fault site.
// Pure function of (Seed, mode, key): independent of call order.
func (f *FaultSource) faulty(random bool, key int) bool {
	if f.plan.Rate <= 0 {
		return false
	}
	phase := FaultSortedAccess
	if random {
		phase = FaultRandomAccess
	}
	if f.plan.Phase != 0 && f.plan.Phase&phase == 0 {
		return false
	}
	k := uint64(key) << 1
	if random {
		k |= 1
	}
	h := splitmix64(f.plan.Seed ^ splitmix64(k))
	return float64(h>>11)/(1<<53) < f.plan.Rate
}

// inject fires the fault at a site, honoring transient clearing: it
// returns nil once a transient site has burned through its failure
// budget. Wedge is applied outside any lock.
func (f *FaultSource) inject(random bool, key int) error {
	if f.plan.Transient > 0 {
		k := faultKey{random: random, key: key}
		f.mu.Lock()
		n := f.attempts[k]
		if n >= f.plan.Transient {
			f.mu.Unlock()
			return nil
		}
		f.attempts[k] = n + 1
		f.mu.Unlock()
	}
	f.injected.Add(1)
	if f.plan.Wedge > 0 {
		time.Sleep(f.plan.Wedge)
	}
	return &FaultError{Random: random, Key: key, Temporary: f.plan.Transient > 0}
}

// failAfter charges one physical access against the FailAfter budget and
// returns the permanent exhaustion fault once it is spent.
func (f *FaultSource) failAfter() error {
	if f.plan.FailAfter <= 0 {
		return nil
	}
	if f.accesses.Add(1) <= int64(f.plan.FailAfter) {
		return nil
	}
	f.injected.Add(1)
	if f.plan.Wedge > 0 {
		time.Sleep(f.plan.Wedge)
	}
	return &FaultError{Key: -1}
}

// Injected reports how many faults have fired so far (including
// transient ones later cleared by retries).
func (f *FaultSource) Injected() int64 { return f.injected.Load() }

// TryEntry implements FallibleSource.
func (f *FaultSource) TryEntry(rank int) (gradedset.Entry, error) {
	return oneEntry(f.TryEntries(rank, rank+1))
}

// TryEntries implements FallibleSource: it scans the requested ranks for
// fault sites and, on the first live one, returns the partial span of
// ranks before it plus the injected error — so the failure pins to the
// same rank whatever spans the caller asked for.
func (f *FaultSource) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	if err := f.failAfter(); err != nil {
		return nil, err
	}
	for r := lo; r < hi; r++ {
		if !f.faulty(false, r) {
			continue
		}
		if err := f.inject(false, r); err != nil {
			if r == lo {
				return nil, err
			}
			span, perr := f.in.Try.TryEntries(lo, r)
			if perr != nil {
				return span, perr
			}
			return span, err
		}
	}
	return f.in.Try.TryEntries(lo, hi)
}

// TryGrade implements FallibleSource.
func (f *FaultSource) TryGrade(obj int) (float64, error) {
	if err := f.failAfter(); err != nil {
		return 0, err
	}
	if f.faulty(true, obj) {
		if err := f.inject(true, obj); err != nil {
			return 0, err
		}
	}
	return f.in.Try.TryGrade(obj)
}

// TryGrades implements BatchGrader: the batch is one physical access
// whose objects are scanned for fault sites in order; on the first live
// one the grades before it are fetched and returned with the injected
// error, so the failure pins to the same object however probes were
// batched.
func (f *FaultSource) TryGrades(objs []int, out []float64) (int, error) {
	if err := f.failAfter(); err != nil {
		return 0, err
	}
	for i, obj := range objs {
		if !f.faulty(true, obj) {
			continue
		}
		if err := f.inject(true, obj); err != nil {
			if i == 0 {
				return 0, err
			}
			if n, perr := f.in.Batch.TryGrades(objs[:i], out); perr != nil {
				return n, perr
			}
			return i, err
		}
	}
	return f.in.Batch.TryGrades(objs, out)
}

// FaultSubsystem wraps a subsystem so every source it produces is
// fault-injected (see FaultSource). Each produced source derives its
// own seed from the plan's seed and the query it answers, so different
// lists fail at different sites while the whole ensemble stays
// reproducible.
type FaultSubsystem struct {
	wrapped

	mu   sync.Mutex
	srcs []*FaultSource
}

// WithFaults wraps sub with the given fault plan.
func WithFaults(sub Subsystem, plan FaultPlan) *FaultSubsystem {
	f := &FaultSubsystem{}
	f.wrapped = wrapped{sub, func(target string, src Source) Source {
		p := plan
		p.Seed = f.listSeed(plan.Seed, target)
		fs := NewFaultSource(src, p)
		f.mu.Lock()
		f.srcs = append(f.srcs, fs)
		f.mu.Unlock()
		return fs
	}}
	return f
}

// Injected sums the faults injected across every source this subsystem
// has produced.
func (f *FaultSubsystem) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total int64
	for _, s := range f.srcs {
		total += s.Injected()
	}
	return total
}

// hashString is FNV-1a, used to derive per-list fault seeds.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
