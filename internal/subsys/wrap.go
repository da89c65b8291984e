package subsys

import (
	"context"

	"fuzzydb/internal/gradedset"
)

// Faces is a source with its optional read faces resolved once, so code
// that sits on top of one — a wrapper, the wire server — reads through
// Try and Batch without asking again what the source can do.
type Faces struct {
	// Src is the source itself: the plain face, and the value the other
	// optional capability (ContextSource) is probed on.
	Src Source
	// Try is never nil: the source's own fallible face, or over a source
	// without one an adapter onto the plain face whose Try* cannot fail.
	Try FallibleSource
	// Batch is nil unless the source batches random access, that is
	// implements BatchGrader with MaxGrades above 0.
	Batch BatchGrader
}

// FacesOf resolves the faces of src.
func FacesOf(src Source) Faces {
	f := Faces{Src: src}
	if fs, ok := src.(FallibleSource); ok {
		f.Try = fs
	} else {
		f.Try = infallible{src}
	}
	if bg, ok := src.(BatchGrader); ok && bg.MaxGrades() > 0 {
		f.Batch = bg
	}
	return f
}

// infallible is the fallible face of a source that cannot fail.
type infallible struct{ Source }

func (s infallible) TryEntry(rank int) (gradedset.Entry, error) { return s.Entry(rank), nil }

func (s infallible) TryEntries(lo, hi int) ([]gradedset.Entry, error) {
	return s.Entries(lo, hi), nil
}

func (s infallible) TryGrade(obj int) (float64, error) { return s.Grade(obj), nil }

// inner is the base every Source wrapper embeds (see "Writing a
// wrapper" in the package documentation): the wrapped source with its
// faces resolved, the plain Source methods forwarded untouched, and the
// capabilities a wrapper passes through unchanged. It must not grow a
// Try* method: Validated embeds it and has to stay neither fallible nor
// batching.
type inner struct{ in Faces }

func wrapping(src Source) inner { return inner{FacesOf(src)} }

// Len, Entry, Entries and Grade implement Source on the wrapped
// source's plain face.
func (w inner) Len() int                             { return w.in.Src.Len() }
func (w inner) Entry(rank int) gradedset.Entry       { return w.in.Src.Entry(rank) }
func (w inner) Entries(lo, hi int) []gradedset.Entry { return w.in.Src.Entries(lo, hi) }
func (w inner) Grade(obj int) float64                { return w.in.Src.Grade(obj) }

// BindContext implements ContextSource: the request context travels
// down to whatever below performs the physical accesses.
func (w inner) BindContext(ctx context.Context) { bindContext(ctx, w.in.Src) }

// MaxGrades is BatchGrader's: the wrapped source's, or 0 when it does
// not batch — the wrapper's TryGrades must then not be called.
func (w inner) MaxGrades() int {
	if w.in.Batch != nil {
		return w.in.Batch.MaxGrades()
	}
	return 0
}

// oneEntry turns the result of TryEntries(rank, rank+1) into TryEntry's.
func oneEntry(span []gradedset.Entry, err error) (gradedset.Entry, error) {
	if len(span) == 1 {
		return span[0], err
	}
	return gradedset.Entry{}, err
}

// wrapped is the base every Subsystem wrapper embeds: Query wraps what
// the inner subsystem returns, and Versioned is forwarded here for all
// of them: a result cache over a wrapped mutable subsystem must see its
// updates. The middleware's
// SelectivityEstimator and ConjunctionEvaluator are deliberately not
// forwarded: the wrappers stand in for a remote backend, whose
// optimizer hints are a separate protocol concern.
type wrapped struct {
	sub  Subsystem
	wrap func(target string, src Source) Source
}

// Attribute implements Subsystem.
func (w wrapped) Attribute() string { return w.sub.Attribute() }

// Size implements Subsystem.
func (w wrapped) Size() int { return w.sub.Size() }

// Query implements Subsystem: the inner subsystem's answer, wrapped.
func (w wrapped) Query(target string) (Source, error) {
	src, err := w.sub.Query(target)
	if err != nil {
		return nil, err
	}
	return w.wrap(target, src), nil
}

// Epoch implements Versioned; an inner subsystem without it is immutable
// by that interface's contract: epoch 0, nothing to replay.
func (w wrapped) Epoch() uint64 {
	if v, ok := w.sub.(Versioned); ok {
		return v.Epoch()
	}
	return 0
}

// UpdatesSince implements Versioned.
func (w wrapped) UpdatesSince(since uint64) ([]Update, bool) {
	if v, ok := w.sub.(Versioned); ok {
		return v.UpdatesSince(since)
	}
	return nil, since == 0
}

// listSeed derives the seed of one produced source from a subsystem
// wrapper's seed and the list the source answers, so different lists
// draw different faults and jitter while the ensemble stays
// reproducible.
func (w wrapped) listSeed(seed uint64, target string) uint64 {
	return splitmix64(seed ^ hashString(w.sub.Attribute()+"\x00"+target))
}
