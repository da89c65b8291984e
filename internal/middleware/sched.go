// The engine half of admission control: WithScheduler wires an
// internal/sched.Scheduler in front of Query and Results, WithTenant
// names the tenant a request bills to, and the admit/settle pair below
// is the reserve-then-settle protocol — a grant is reserved before any
// planning work and settled with the exact Section 5 cost the report
// tallied once the evaluation finishes.
//
// Without WithScheduler the engine has no admission layer at all: admit
// returns a nil grant, every Settle on it no-ops, and no path gains a
// lock, a counter, or a reordering — the gated cost metrics of an
// unscheduled engine are bit-identical to an engine built before this
// layer existed.
package middleware

import (
	"context"

	"fuzzydb/internal/sched"
)

// WithScheduler places an admission-control scheduler in front of the
// engine: every Query and Results call first acquires a grant from it
// (blocking under weighted-fair queueing, shedding with a typed
// *sched.OverloadError when overloaded) and settles the grant with the
// request's exact access cost afterwards. Requests name their tenant
// with WithTenant; unnamed requests bill to the empty-string tenant.
// A nil scheduler leaves the engine without admission control.
func WithScheduler(s *sched.Scheduler) Option {
	return func(m *Middleware) { m.sched = s }
}

// WithTenant names the tenant this request bills to under an engine
// built WithScheduler: its token bucket funds the reserve, its fair
// queue orders the admission, its stats record the settle. Without a
// scheduler the option is inert.
func WithTenant(name string) QueryOption {
	return func(r *Request) { r.Tenant = name }
}

// admit asks the scheduler (if any) to admit the request, recording the
// granted prefetch/gather width cap on the config. A nil scheduler
// admits everything with a nil grant, so the unscheduled path stays a
// strict no-op.
func (m *Middleware) admit(ctx context.Context, req *Request) (*sched.Grant, error) {
	g, err := m.sched.Acquire(ctx, req.Tenant)
	if err != nil {
		return nil, err
	}
	if w := g.Width(); w > 0 {
		req.widthCap = w
	}
	return g, nil
}

// settledCost is the spend a finished request settles against its
// reservation: the config's cost model applied to the report's Section
// 5 tallies. A cache hit settles at zero — it consumed no source
// accesses (the report's cost records what the cached computation once
// spent, not what this request spent). A nil report (planning failed
// before any access) also settles at zero.
func settledCost(req Request, rep *Report) float64 {
	if rep == nil || (rep.Cache != nil && rep.Cache.Hit) {
		return 0
	}
	return req.Model.Of(rep.Cost)
}
