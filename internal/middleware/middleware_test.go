package middleware

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/query"
	"fuzzydb/internal/subsys"
)

// cdStore builds the paper's running example: a store of compact disks
// with a relational Artist subsystem and a QBIC-like AlbumColor
// subsystem.
func cdStore(t *testing.T) (*Middleware, []string) {
	t.Helper()
	names := []string{
		"Abbey Road",        // Beatles, mostly red-ish cover in this fiction
		"Let It Be",         // Beatles, dark cover
		"Sticky Fingers",    // Stones, red cover
		"Beggars Banquet",   // Stones, beige cover
		"Nashville Skyline", // Dylan, blue cover
		"Revolver",          // Beatles, red-leaning cover
	}
	artists := []string{"Beatles", "Beatles", "Stones", "Stones", "Dylan", "Beatles"}
	// RGB-ish feature vectors.
	covers := [][]float64{
		{0.8, 0.1, 0.1},
		{0.1, 0.1, 0.1},
		{0.9, 0.05, 0.05},
		{0.6, 0.5, 0.3},
		{0.1, 0.2, 0.8},
		{0.7, 0.2, 0.1},
	}
	colors := subsys.NewVector("AlbumColor", covers, map[string][]float64{
		"red":  {1, 0, 0},
		"blue": {0, 0, 1},
	})
	mw, err := New(
		[]subsys.Subsystem{subsys.NewRelational("Artist", artists), colors},
		WithNames(names),
	)
	if err != nil {
		t.Fatal(err)
	}
	return mw, names
}

func TestRunningExampleBeatlesRed(t *testing.T) {
	mw, names := cdStore(t)
	rep, err := mw.QueryString(context.Background(), `Artist = "Beatles" AND AlbumColor ~ "red"`, TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("results = %v", rep.Results)
	}
	// Property (a) of Section 4: nonzero grades only for Beatles albums.
	beatles := map[string]bool{"Abbey Road": true, "Let It Be": true, "Revolver": true}
	for _, r := range rep.Results {
		if r.Grade > 0 && !beatles[names[r.Object]] {
			t.Errorf("non-Beatles album %q got grade %v", names[r.Object], r.Grade)
		}
	}
	// Property (b): among Beatles albums, redder covers rank higher. The
	// reddest Beatles cover here is Abbey Road (0.8 red), then Revolver.
	if names[rep.Results[0].Object] != "Abbey Road" {
		t.Errorf("top = %q, want Abbey Road", names[rep.Results[0].Object])
	}
	if names[rep.Results[1].Object] != "Revolver" {
		t.Errorf("second = %q, want Revolver", names[rep.Results[1].Object])
	}
	// The planner must have chosen A0' for a min-conjunction.
	if rep.Plan.Algorithm.Name() != "A0'" {
		t.Errorf("plan = %s, want A0'", rep.Plan.Algorithm.Name())
	}
	if rep.Cost.Sum() <= 0 {
		t.Error("no cost recorded")
	}
	if len(rep.PerList) != len(rep.Plan.Atoms) {
		t.Fatalf("PerList has %d entries for %d atoms", len(rep.PerList), len(rep.Plan.Atoms))
	}
	var sum int
	for _, c := range rep.PerList {
		sum += c.Sum()
	}
	if sum != rep.Cost.Sum() {
		t.Errorf("per-list costs sum to %d, total is %d", sum, rep.Cost.Sum())
	}
}

// orderStatForm spells Remark 6.1's order-statistic form over the given
// atoms: the OR of the ANDs of every j-subset, the j-th largest grade
// under min/max. skip > 0 leaves out the skip-th subset.
func orderStatForm(atoms []string, j, skip int) string {
	var ors []string
	for i, s := range agg.Subsets(len(atoms), j) {
		if i+1 == skip {
			continue
		}
		ands := make([]string, len(s))
		for x, a := range s {
			ands[x] = atoms[a]
		}
		ors = append(ors, "("+strings.Join(ands, " AND ")+")")
	}
	return strings.Join(ors, " OR ")
}

// prunedForm is orderStatForm(atoms, j, 0) with atoms[drop] pruned from
// every disjunct, as degradation prunes a failed atom.
func prunedForm(atoms []string, j, drop int) string {
	var ors []string
	for _, s := range agg.Subsets(len(atoms), j) {
		var ands []string
		for _, a := range s {
			if a != drop {
				ands = append(ands, atoms[a])
			}
		}
		ors = append(ors, "("+strings.Join(ands, " AND ")+")")
	}
	return strings.Join(ors, " OR ")
}

// The atoms of the median rows over cdStore.
var (
	cdBeatles = `Artist = "Beatles"`
	cdRed     = `AlbumColor ~ "red"`
	cdBlue    = `AlbumColor ~ "blue"`
	cdMedian  = orderStatForm([]string{cdBeatles, cdRed, cdBlue}, 2, 0)
	cdFive    = []string{cdBeatles, cdRed, cdBlue, `Artist = "Stones"`, `Artist = "Dylan"`}
)

func TestPlannerChoices(t *testing.T) {
	mw, _ := cdStore(t)
	cases := []struct {
		q    string
		want string
	}{
		{`Artist = "Beatles" AND AlbumColor ~ "red"`, "A0'"},
		{`Artist = "Beatles" OR AlbumColor ~ "red"`, "B0"},
		{`Artist = "Beatles"`, "B0"}, // single list
		{`Artist = "Beatles" AND NOT AlbumColor ~ "red"`, "naive-sorted"},
		{`(Artist = "Beatles" AND AlbumColor ~ "red") OR AlbumColor ~ "blue"`, "A0"},
		// The order-statistic form plans the subset decomposition.
		{cdMedian, "orderstat-2-via-subsets"},
		{orderStatForm(cdFive, 3, 0), "orderstat-3-via-subsets"},
		{orderStatForm(cdFive, 2, 0), "orderstat-2-via-subsets"},
		{orderStatForm(cdFive[:4], 3, 0), "orderstat-3-via-subsets"}, // j > m/2
		// Nested, reordered and repeated disjuncts normalize to the form.
		{"((" + cdBeatles + " AND " + cdRed + ") OR (" + cdBlue + " AND " + cdBeatles + ")) OR (" +
			cdRed + " AND (" + cdBlue + " AND " + cdRed + ")) OR (" + cdRed + " AND " + cdBeatles + ")", "orderstat-2-via-subsets"},
		// So does a redundant disjunct that a subset absorbs.
		{cdMedian + " OR (" + cdBeatles + " AND " + cdRed + " AND " + cdBlue + ")", "orderstat-2-via-subsets"},
		// The degraded five-atom j = 3 median: with one atom pruned it is
		// the six 2-subsets and the four 3-subsets of the survivors, and
		// absorption leaves order statistic 2 of 4.
		{prunedForm(cdFive, 3, 4), "orderstat-2-via-subsets"},
		// Anything short of it stays A₀: a missing subset, a weighted
		// disjunct, a missing subset whose superset absorption drops,
		// mixed subset sizes that absorption cannot reduce.
		{orderStatForm(cdFive, 2, 4), "A0"},
		{"(" + cdBeatles + " AND " + cdRed + ") ^ 2 OR (" + cdBeatles + " AND " + cdBlue + ") OR (" + cdRed + " AND " + cdBlue + ")", "A0"},
		{orderStatForm(cdFive, 2, 1) + " OR (" + cdBeatles + " AND " + cdRed + " AND " + cdBlue + ")", "A0"},
		{cdMedian + " OR (" + cdBlue + " AND " + cdFive[3] + " AND " + cdFive[4] + ")", "A0"},
	}
	for _, c := range cases {
		plan, err := mw.PlanQuery(query.MustParse(c.q))
		if err != nil {
			t.Errorf("%q: %v", c.q, err)
			continue
		}
		if plan.Algorithm.Name() != c.want {
			t.Errorf("%q planned %s, want %s", c.q, plan.Algorithm.Name(), c.want)
		}
		if plan.Reason == "" {
			t.Errorf("%q: empty reason", c.q)
		}
	}
}

func TestPlannerNormalizationUpgradesPlan(t *testing.T) {
	mw, _ := cdStore(t)
	// As written this is non-monotone (double negation); normalization
	// recovers the conjunction and the A0' plan (Theorem 3.1 rewrites).
	plan, err := mw.PlanQuery(query.MustParse(`NOT NOT (Artist = "Beatles" AND AlbumColor ~ "red")`))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm.Name() != "A0'" {
		t.Errorf("normalized plan = %s, want A0'", plan.Algorithm.Name())
	}
	// Nested conjunctions flatten into one shape too.
	plan2, err := mw.PlanQuery(query.MustParse(`Artist = "Beatles" AND (AlbumColor ~ "red" AND AlbumColor ~ "blue")`))
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Algorithm.Name() != "A0'" {
		t.Errorf("flattened plan = %s, want A0'", plan2.Algorithm.Name())
	}
	// And the answers still match a naive evaluation of the original.
	rep, err := mw.QueryString(context.Background(), `NOT NOT (Artist = "Beatles" AND AlbumColor ~ "red")`, TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := mw.QueryString(context.Background(), `Artist = "Beatles" AND AlbumColor ~ "red"`, TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	if !sameGrades(rep.Results, plain.Results) {
		t.Errorf("normalized results %v differ from plain %v", rep.Results, plain.Results)
	}
}

func TestPlannerWithProductSemanticsAvoidsA0Prime(t *testing.T) {
	mw, _ := cdStore(t)
	mwProd, err := New(
		[]subsys.Subsystem{
			subsys.NewRelational("Artist", []string{"Beatles", "Beatles", "Stones", "Stones", "Dylan", "Beatles"}),
			mustVector(t),
		},
		WithSemantics(query.WithTNorm(agg.AlgebraicProduct)),
	)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParse(`Artist = "Beatles" AND AlbumColor ~ "red"`)
	planMin, err := mw.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	planProd, err := mwProd.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if planMin.Algorithm.Name() != "A0'" || planProd.Algorithm.Name() != "A0" {
		t.Errorf("min plans %s, product plans %s; want A0' and A0",
			planMin.Algorithm.Name(), planProd.Algorithm.Name())
	}
	// The order-statistic form is the j-th largest grade only under
	// min/max: under the product it is another monotone query.
	planMedian, err := mwProd.PlanQuery(query.MustParse(cdMedian))
	if err != nil {
		t.Fatal(err)
	}
	if planMedian.Algorithm.Name() != "A0" {
		t.Errorf("median form under product plans %s, want A0", planMedian.Algorithm.Name())
	}
}

func mustVector(t *testing.T) *subsys.Vector {
	t.Helper()
	covers := [][]float64{
		{0.8, 0.1, 0.1}, {0.1, 0.1, 0.1}, {0.9, 0.05, 0.05},
		{0.6, 0.5, 0.3}, {0.1, 0.2, 0.8}, {0.7, 0.2, 0.1},
	}
	return subsys.NewVector("AlbumColor", covers, map[string][]float64{
		"red": {1, 0, 0}, "blue": {0, 0, 1},
	})
}

// Every plan the middleware produces must give the same answers as a
// naive evaluation of the compiled query.
func TestPlansMatchNaive(t *testing.T) {
	mw, _ := cdStore(t)
	queries := []string{
		`Artist = "Beatles" AND AlbumColor ~ "red"`,
		`Artist = "Beatles" OR AlbumColor ~ "blue"`,
		`AlbumColor ~ "red"`,
		`Artist = "Stones" AND NOT AlbumColor ~ "blue"`,
		`(Artist = "Dylan" OR Artist = "Stones") AND AlbumColor ~ "red"`,
		`NOT Artist = "Beatles" AND NOT AlbumColor ~ "blue"`,
		cdMedian,
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		rep, err := mw.Query(context.Background(), q, TopN(4))
		if err != nil {
			t.Errorf("%q: %v", qs, err)
			continue
		}
		c, err := query.Compile(q, query.Standard())
		if err != nil {
			t.Fatal(err)
		}
		// Naive reference over the same sources.
		srcs := make([]subsys.Source, len(c.Atoms))
		for i, a := range c.Atoms {
			src, err := subsystemFor(mw, a)
			if err != nil {
				t.Fatal(err)
			}
			srcs[i] = src
		}
		want, _, err := core.Evaluate(context.Background(), core.NaiveSorted{}, srcs, c.Func, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGrades(rep.Results, want) {
			t.Errorf("%q: got %v want %v (plan %s)", qs, rep.Results, want, rep.Plan.Algorithm.Name())
		}
	}
}

func subsystemFor(m *Middleware, a query.Atomic) (subsys.Source, error) {
	ss, err := m.sources([]query.Atomic{a})
	if err != nil {
		return nil, err
	}
	return ss[0], nil
}

func sameGrades(a, b []core.Result) bool {
	ea := make([]gradedset.Entry, len(a))
	for i, r := range a {
		ea[i] = gradedset.Entry{Object: r.Object, Grade: r.Grade}
	}
	eb := make([]gradedset.Entry, len(b))
	for i, r := range b {
		eb[i] = gradedset.Entry{Object: r.Object, Grade: r.Grade}
	}
	return gradedset.SameGradeMultiset(ea, eb, 1e-12)
}

func TestUnknownAttribute(t *testing.T) {
	mw, _ := cdStore(t)
	if _, err := mw.QueryString(context.Background(), `Genre = "rock"`, TopN(2)); !errors.Is(err, ErrUnknownAttribute) {
		t.Errorf("unknown attribute error = %v", err)
	}
	if _, err := mw.PlanQuery(query.Atomic{Attr: "Genre", Target: "rock"}); !errors.Is(err, ErrUnknownAttribute) {
		t.Errorf("plan with unknown attribute error = %v", err)
	}
}

func TestUnknownTargetPropagates(t *testing.T) {
	mw, _ := cdStore(t)
	if _, err := mw.QueryString(context.Background(), `AlbumColor ~ "plaid"`, TopN(2)); !errors.Is(err, subsys.ErrUnknownTarget) {
		t.Errorf("unknown target error = %v", err)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("no subsystems accepted")
	}
	a := subsys.NewRelational("A", []string{"x", "y"})
	b := subsys.NewRelational("B", []string{"x"})
	if _, err := New([]subsys.Subsystem{a, b}); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("size mismatch error = %v", err)
	}
	dup := subsys.NewRelational("A", []string{"x", "y"})
	if _, err := New([]subsys.Subsystem{a, dup}); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := New([]subsys.Subsystem{a}, WithNames([]string{"only-one"})); err == nil {
		t.Error("wrong name count accepted")
	}
}

func TestNames(t *testing.T) {
	mw, names := cdStore(t)
	if mw.Name(0) != names[0] {
		t.Errorf("Name(0) = %q", mw.Name(0))
	}
	if mw.Name(-1) != "#-1" {
		t.Errorf("Name(-1) = %q", mw.Name(-1))
	}
	bare, err := New([]subsys.Subsystem{subsys.NewRelational("A", []string{"x"})})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Name(0) != "#0" {
		t.Errorf("unnamed Name(0) = %q", bare.Name(0))
	}
	if mw.N() != 6 {
		t.Errorf("N = %d", mw.N())
	}
}

func TestFilterThroughMiddleware(t *testing.T) {
	mw, _ := cdStore(t)
	rep, err := mw.Filter(context.Background(), query.MustParse(`Artist = "Beatles" AND AlbumColor ~ "red"`), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Grade < 0.5 {
			t.Errorf("filter returned %v below threshold", r)
		}
	}
	// Negated queries cannot be filtered.
	if _, err := mw.Filter(context.Background(), query.MustParse(`NOT Artist = "Beatles"`), 0.5); err == nil {
		t.Error("filter accepted a non-monotone query")
	}
}

func TestMedianThroughMiddleware(t *testing.T) {
	// The median of three lists is the query string of its 2-subsets,
	// planned as the order statistic and equal to the naive median.
	mw, _ := cdStore(t)
	rep, err := mw.Query(context.Background(), query.MustParse(cdMedian), TopN(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan.Algorithm.Name() != "orderstat-2-via-subsets" {
		t.Errorf("median planned %s, want orderstat-2-via-subsets", rep.Plan.Algorithm.Name())
	}
	srcs, err := mw.sources([]query.Atomic{
		{Attr: "Artist", Target: "Beatles"},
		{Attr: "AlbumColor", Target: "red"},
		{Attr: "AlbumColor", Target: "blue"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Evaluate(context.Background(), core.NaiveSorted{}, srcs, agg.Median, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGrades(rep.Results, want) {
		t.Errorf("median: got %v want %v", rep.Results, want)
	}
}

func TestPaginateThroughMiddleware(t *testing.T) {
	mw, _ := cdStore(t)
	var got []core.Result
	for r, err := range mw.Results(context.Background(), query.MustParse(`Artist = "Beatles" AND AlbumColor ~ "red"`), TopN(2)) {
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, r); len(got) == 4 {
			break
		}
	}
	if len(got) != 4 {
		t.Fatalf("two pages of 2: %v", got)
	}
	if got[2].Grade > got[1].Grade {
		t.Errorf("page 2 starts above page 1's tail: %v vs %v", got[2], got[1])
	}
	seen := map[int]bool{}
	for _, r := range got {
		if seen[r.Object] {
			t.Errorf("object %d delivered twice", r.Object)
		}
		seen[r.Object] = true
	}
}

func TestInternalVsExternalConjunction(t *testing.T) {
	mw, _ := cdStore(t)
	atoms := []query.Atomic{
		{Attr: "AlbumColor", Target: "red"},
		{Attr: "AlbumColor", Target: "blue"},
	}
	internal, err := mw.TopKInternal(context.Background(), atoms, 3)
	if err != nil {
		t.Fatal(err)
	}
	external, err := mw.Query(context.Background(), query.Conj(atoms...), TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	// The Vector subsystem's native conjunction is a product; the
	// middleware's is min. Grades must differ somewhere (Section 8).
	differ := false
	for i := range internal.Results {
		gi := internal.Results[i].Grade
		ge := external.Results[i].Grade
		if math.Abs(gi-ge) > 1e-9 {
			differ = true
		}
		if gi > ge+1e-9 {
			// product ≤ min always
			t.Errorf("internal grade %v above external %v", gi, ge)
		}
	}
	if !differ {
		t.Error("internal and external conjunction agreed everywhere; semantics mismatch not modeled")
	}
	// Internal conjunction across different attributes must be refused.
	if _, err := mw.TopKInternal(context.Background(), []query.Atomic{
		{Attr: "Artist", Target: "Beatles"},
		{Attr: "AlbumColor", Target: "red"},
	}, 2); err == nil {
		t.Error("cross-attribute internal conjunction accepted")
	}
	// A subsystem without the capability must be refused.
	if _, err := mw.TopKInternal(context.Background(), []query.Atomic{
		{Attr: "Artist", Target: "Beatles"},
		{Attr: "Artist", Target: "Dylan"},
	}, 2); err == nil {
		t.Error("relational internal conjunction accepted")
	}
	if _, err := mw.TopKInternal(context.Background(), nil, 2); err == nil {
		t.Error("empty internal conjunction accepted")
	}
}

func TestPlannerSelectiveFilterFirst(t *testing.T) {
	// A large store where very few albums are by the Beatles: the
	// planner should pick the Section 4 filter-first plan, and the
	// answers must match A0' exactly.
	const n = 5000
	artists := make([]string, n)
	covers := make([][]float64, n)
	for i := range artists {
		if i%500 == 0 { // selectivity 0.002
			artists[i] = "Beatles"
		} else {
			artists[i] = "Other"
		}
		covers[i] = []float64{float64(i%17) / 16, float64(i%11) / 10, float64(i%7) / 6}
	}
	mw, err := New([]subsys.Subsystem{
		subsys.NewRelational("Artist", artists),
		subsys.NewVector("AlbumColor", covers, map[string][]float64{"red": {1, 0, 0}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParse(`Artist = "Beatles" AND AlbumColor ~ "red"`)
	plan, err := mw.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algorithm.Name() != "filter-first" {
		t.Fatalf("plan = %s, want filter-first", plan.Algorithm.Name())
	}
	rep, err := mw.Query(context.Background(), q, TopN(5))
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same query evaluated by A0' on fresh sources.
	srcs, err := mw.sources(plan.Atoms)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Evaluate(context.Background(), core.A0Prime{}, srcs, plan.Agg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGrades(rep.Results, want) {
		t.Errorf("filter-first results %v differ from A0' %v", rep.Results, want)
	}
	// The selective plan must beat the general one on this workload.
	fresh, err := mw.sources(plan.Atoms)
	if err != nil {
		t.Fatal(err)
	}
	_, cA0, err := core.Evaluate(context.Background(), core.A0Prime{}, fresh, plan.Agg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost.Sum() >= cA0.Sum() {
		t.Errorf("filter-first cost %v not below A0' cost %v", rep.Cost, cA0)
	}
	// A common predicate must NOT trigger filter-first.
	planCommon, err := mw.PlanQuery(query.MustParse(`Artist = "Other" AND AlbumColor ~ "red"`))
	if err != nil {
		t.Fatal(err)
	}
	if planCommon.Algorithm.Name() != "A0'" {
		t.Errorf("common predicate planned %s, want A0'", planCommon.Algorithm.Name())
	}
}

func TestWeightedQueryThroughEngine(t *testing.T) {
	mw, _ := cdStore(t)
	// Color twice as important as artist (FW97 via query syntax).
	rep, err := mw.QueryString(context.Background(), `Artist = "Beatles" ^ 1 AND AlbumColor ~ "red" ^ 2`, TopN(3))
	if err != nil {
		t.Fatal(err)
	}
	// The weighted conjunction is monotone but not min: plan must be A0.
	if rep.Plan.Algorithm.Name() != "A0" {
		t.Errorf("plan = %s, want A0", rep.Plan.Algorithm.Name())
	}
	// Reference: naive evaluation of the same compiled function.
	q := query.MustParse(`Artist = "Beatles" ^ 1 AND AlbumColor ~ "red" ^ 2`)
	c, err := query.Compile(q, query.Standard())
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := mw.sources(c.Atoms)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Evaluate(context.Background(), core.NaiveSorted{}, srcs, c.Func, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGrades(rep.Results, want) {
		t.Errorf("weighted query: got %v want %v", rep.Results, want)
	}
	// Weights must actually matter: an extreme color weight promotes the
	// reddest album regardless of artist.
	repColor, err := mw.QueryString(context.Background(), `Artist = "Beatles" ^ 0 AND AlbumColor ~ "red" ^ 1`, TopN(1))
	if err != nil {
		t.Fatal(err)
	}
	if mw.Name(repColor.Results[0].Object) != "Sticky Fingers" {
		t.Errorf("all-color query top = %q, want Sticky Fingers (reddest, Stones)",
			mw.Name(repColor.Results[0].Object))
	}
}

func TestRelationalSelectivity(t *testing.T) {
	r := subsys.NewRelational("Artist", []string{"a", "b", "a", "a"})
	if got := r.Selectivity("a"); got != 0.75 {
		t.Errorf("Selectivity(a) = %v", got)
	}
	if got := r.Selectivity("zzz"); got != 0 {
		t.Errorf("Selectivity(absent) = %v", got)
	}
	empty := subsys.NewRelational("X", nil)
	if got := empty.Selectivity("a"); got != 0 {
		t.Errorf("empty Selectivity = %v", got)
	}
}

func TestHardQueryThroughMiddleware(t *testing.T) {
	// Q ∧ ¬Q: planned as naive, graded max 1/2, cost linear (= mN here).
	mw, _ := cdStore(t)
	rep, err := mw.QueryString(context.Background(), `AlbumColor ~ "red" AND NOT AlbumColor ~ "red"`, TopN(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan.Algorithm.Name() != "naive-sorted" {
		t.Errorf("plan = %s, want naive-sorted", rep.Plan.Algorithm.Name())
	}
	if rep.Results[0].Grade > 0.5 {
		t.Errorf("Q ∧ ¬Q grade %v exceeds 1/2", rep.Results[0].Grade)
	}
	if rep.Cost.Sorted != mw.N() {
		// One deduplicated atom: naive drains a single list of N objects.
		t.Errorf("hard query cost %v, want S=%d", rep.Cost, mw.N())
	}
}
