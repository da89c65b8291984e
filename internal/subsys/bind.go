package subsys

import "context"

// ContextSource is the optional per-request capability of a Source whose
// physical accesses should be performed under the caller's context — a
// remote source issuing RPCs, most prominently. The engine binds the
// request context to every capable source when it builds an evaluation
// (core.NewExecContext), so cancellation and deadlines propagate into
// in-flight transport calls instead of only being polled between
// accesses.
//
// BindContext may be called while earlier accesses are still in flight
// (a background prefetch pipeline from a previous page, a retried call
// abandoned by a timeout), so implementations must store the context
// race-safely (an atomic pointer) and in-flight calls may finish under
// the previously bound context. Binding nil or context.Background()
// clears any deadline coupling.
type ContextSource interface {
	// BindContext makes subsequent accesses run under ctx.
	BindContext(ctx context.Context)
}

// BindContext binds ctx to every source that declares the ContextSource
// capability; the rest are untouched. Counted and every Source wrapper
// (through the embedded base, see wrap.go) forward the capability to
// what they wrap, so the binding reaches the transport no matter how
// deep the stack is — for the P shard views of one parent, idempotently.
func BindContext(ctx context.Context, srcs []Source) {
	for _, s := range srcs {
		bindContext(ctx, s)
	}
}

// bindContext binds ctx to one source when it has the capability.
func bindContext(ctx context.Context, s Source) {
	if cs, ok := s.(ContextSource); ok {
		cs.BindContext(ctx)
	}
}

// BindContext forwards the request context to the wrapped source (see
// ContextSource); no-op after Release or when the source lacks the
// capability.
func (c *Counted) BindContext(ctx context.Context) {
	if c.src != nil {
		bindContext(ctx, c.src)
	}
}
