package subsys

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"fuzzydb/internal/gradedset"
)

// Subsystem evaluates atomic queries "Attribute = target" over a fixed
// object universe into graded Sources. One subsystem owns one attribute,
// as in the paper's running example: a relational engine owns Artist, a
// QBIC-like engine owns AlbumColor.
type Subsystem interface {
	// Attribute returns the attribute name this subsystem answers for.
	Attribute() string
	// Size returns the number of objects in the universe.
	Size() int
	// Query evaluates the atomic query Attribute = target.
	Query(target string) (Source, error)
}

// ErrUnknownTarget reports a target the subsystem cannot interpret.
var ErrUnknownTarget = errors.New("subsys: unknown target")

// --- Relational ---

// Relational is a traditional database subsystem: the grade of the atomic
// query X = t is 1 when the stored value equals the target and 0
// otherwise (Section 2). Ties are broken by object id.
type Relational struct {
	attr   string
	values []string
}

// NewRelational builds a relational subsystem over values[obj].
func NewRelational(attr string, values []string) *Relational {
	return &Relational{attr: attr, values: values}
}

// Attribute implements Subsystem.
func (r *Relational) Attribute() string { return r.attr }

// Size implements Subsystem.
func (r *Relational) Size() int { return len(r.values) }

// Selectivity returns the fraction of objects whose stored value equals
// the target — the statistic a relational optimizer keeps, and what a
// middleware planner needs to decide whether "evaluate the crisp
// conjunct first" beats the general algorithm (Section 4's opening
// discussion).
func (r *Relational) Selectivity(target string) float64 {
	if len(r.values) == 0 {
		return 0
	}
	count := 0
	for _, v := range r.values {
		if v == target {
			count++
		}
	}
	return float64(count) / float64(len(r.values))
}

// Query implements Subsystem. Matching is exact and case-sensitive.
func (r *Relational) Query(target string) (Source, error) {
	entries := make([]gradedset.Entry, len(r.values))
	for obj, v := range r.values {
		g := 0.0
		if v == target {
			g = 1
		}
		entries[obj] = gradedset.Entry{Object: obj, Grade: g}
	}
	l, err := gradedset.NewList(entries)
	if err != nil {
		return nil, err
	}
	return FromList(l), nil
}

// --- Vector (QBIC stand-in) ---

// Vector simulates a content-based image retrieval engine such as QBIC:
// each object carries a feature vector (for example a color histogram),
// and the grade of X = t is a similarity in [0, 1] between the object's
// vector and a named target vector. This preserves the behavioural
// contract the paper assumes of QBIC — graded answers, sorted and random
// access — without the proprietary system.
type Vector struct {
	attr     string
	features [][]float64
	targets  map[string][]float64
}

// NewVector builds a vector subsystem over features[obj] with named query
// targets (e.g. "red" → a reference histogram).
func NewVector(attr string, features [][]float64, targets map[string][]float64) *Vector {
	return &Vector{attr: attr, features: features, targets: targets}
}

// Attribute implements Subsystem.
func (v *Vector) Attribute() string { return v.attr }

// Size implements Subsystem.
func (v *Vector) Size() int { return len(v.features) }

// AddTarget registers (or replaces) a named target vector.
func (v *Vector) AddTarget(name string, vec []float64) {
	v.targets[name] = vec
}

// Query implements Subsystem. The grade is 1/(1 + d) where d is the
// Euclidean distance between the object's feature vector and the target:
// 1 for a perfect match, decaying toward 0 as vectors diverge — the
// "closeness of colors" shape of QBIC's matching functions.
func (v *Vector) Query(target string) (Source, error) {
	tvec, ok := v.targets[target]
	if !ok {
		return nil, fmt.Errorf("%w: %q for attribute %q", ErrUnknownTarget, target, v.attr)
	}
	entries := make([]gradedset.Entry, len(v.features))
	for obj, f := range v.features {
		entries[obj] = gradedset.Entry{Object: obj, Grade: Similarity(f, tvec)}
	}
	l, err := gradedset.NewList(entries)
	if err != nil {
		return nil, err
	}
	return FromList(l), nil
}

// QueryConjunction evaluates a conjunction of targets natively, under the
// subsystem's own semantics: the product of the per-target similarities
// rather than their min. This is deliberately different from the standard
// middleware rule — it models the Section 8 situation where a subsystem
// like QBIC has its own conjunction semantics, so pushing a conjunction
// down ("internal conjunction") may return different grades than
// evaluating the conjuncts separately and combining them with the
// middleware's rules ("external conjunction").
func (v *Vector) QueryConjunction(targets []string) (Source, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("%w: empty conjunction for attribute %q", ErrUnknownTarget, v.attr)
	}
	tvecs := make([][]float64, len(targets))
	for i, name := range targets {
		tv, ok := v.targets[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q for attribute %q", ErrUnknownTarget, name, v.attr)
		}
		tvecs[i] = tv
	}
	entries := make([]gradedset.Entry, len(v.features))
	for obj, f := range v.features {
		g := 1.0
		for _, tv := range tvecs {
			g *= Similarity(f, tv)
		}
		entries[obj] = gradedset.Entry{Object: obj, Grade: g}
	}
	l, err := gradedset.NewList(entries)
	if err != nil {
		return nil, err
	}
	return FromList(l), nil
}

// Similarity maps the Euclidean distance between two vectors into a grade
// in [0, 1]: 1/(1 + ‖a−b‖). Vectors of different lengths are compared on
// the shorter prefix with the excess counted as distance.
func Similarity(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var d2 float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		d2 += d * d
	}
	for i := n; i < len(a); i++ {
		d2 += a[i] * a[i]
	}
	for i := n; i < len(b); i++ {
		d2 += b[i] * b[i]
	}
	return 1 / (1 + math.Sqrt(d2))
}

// --- Text ---

// Text simulates a text retrieval subsystem: each object carries a
// document, and the grade of X = t is a normalized token-overlap score
// between the document and the target phrase, weighted by inverse
// document frequency so rare terms count more.
type Text struct {
	attr string
	docs [][]string     // tokenized documents
	df   map[string]int // document frequency per token
}

// NewText builds a text subsystem over raw documents, tokenizing on
// whitespace and lowercasing.
func NewText(attr string, docs []string) *Text {
	t := &Text{attr: attr, docs: make([][]string, len(docs)), df: make(map[string]int)}
	for i, d := range docs {
		toks := Tokenize(d)
		t.docs[i] = toks
		seen := make(map[string]bool)
		for _, tok := range toks {
			if !seen[tok] {
				seen[tok] = true
				t.df[tok]++
			}
		}
	}
	return t
}

// Attribute implements Subsystem.
func (t *Text) Attribute() string { return t.attr }

// Size implements Subsystem.
func (t *Text) Size() int { return len(t.docs) }

// Query implements Subsystem. The score of a document is the
// IDF-weighted fraction of query tokens it contains, squashed into [0, 1].
func (t *Text) Query(target string) (Source, error) {
	qtoks := Tokenize(target)
	if len(qtoks) == 0 {
		return nil, fmt.Errorf("%w: empty query for attribute %q", ErrUnknownTarget, t.attr)
	}
	n := float64(len(t.docs))
	idf := func(tok string) float64 {
		return math.Log(1+n/float64(1+t.df[tok])) / math.Log(1+n)
	}
	var totalW float64
	for _, tok := range qtoks {
		totalW += idf(tok)
	}
	entries := make([]gradedset.Entry, len(t.docs))
	for obj, doc := range t.docs {
		has := make(map[string]bool, len(doc))
		for _, tok := range doc {
			has[tok] = true
		}
		var w float64
		for _, tok := range qtoks {
			if has[tok] {
				w += idf(tok)
			}
		}
		g := 0.0
		if totalW > 0 {
			g = w / totalW
		}
		entries[obj] = gradedset.Entry{Object: obj, Grade: gradedset.ClampGrade(g)}
	}
	l, err := gradedset.NewList(entries)
	if err != nil {
		return nil, err
	}
	return FromList(l), nil
}

// Tokenize lowercases and splits on non-letter/digit boundaries.
func Tokenize(s string) []string {
	s = strings.ToLower(s)
	return strings.FieldsFunc(s, func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	})
}

// --- Static ---

// Static serves precomputed graded lists per target: the workhorse for
// tests and synthetic experiments where the grades come from a scoring
// database rather than a live engine.
type Static struct {
	attr    string
	n       int
	results map[string]*gradedset.List
}

// NewStatic builds a static subsystem over an n-object universe.
func NewStatic(attr string, n int) *Static {
	return &Static{attr: attr, n: n, results: make(map[string]*gradedset.List)}
}

// Attribute implements Subsystem.
func (s *Static) Attribute() string { return s.attr }

// Size implements Subsystem.
func (s *Static) Size() int { return s.n }

// Set registers the graded list returned for target.
func (s *Static) Set(target string, l *gradedset.List) {
	s.results[target] = l
}

// Targets lists the registered targets in sorted order.
func (s *Static) Targets() []string {
	out := make([]string, 0, len(s.results))
	for t := range s.results {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Query implements Subsystem.
func (s *Static) Query(target string) (Source, error) {
	l, ok := s.results[target]
	if !ok {
		return nil, fmt.Errorf("%w: %q for attribute %q", ErrUnknownTarget, target, s.attr)
	}
	return FromList(l), nil
}
