package main

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// fullSortTopK is the reference the oracle's selection is checked
// against: aggregate every object, sort them all.
func fullSortTopK(m matrix, lists []int, k int) []answer {
	n := len(m[0])
	all := make([]answer, n)
	for obj := range all {
		g := 1.0
		for _, l := range lists {
			if m[l][obj] < g {
				g = m[l][obj]
			}
		}
		all[obj] = answer{Object: obj, Grade: g}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Grade != all[j].Grade {
			return all[i].Grade > all[j].Grade
		}
		return all[i].Object < all[j].Object
	})
	if k > n {
		k = n
	}
	return all[:k]
}

func TestOracleMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 200; trial++ {
		n, lists := 1+rng.IntN(60), 1+rng.IntN(4)
		levels := 2 + rng.IntN(20) // few levels: many ties
		m := make(matrix, lists)
		for l := range m {
			m[l] = make([]float64, n)
			for o := range m[l] {
				m[l][o] = float64(rng.IntN(levels)) / float64(levels)
			}
		}
		pick := rng.Perm(lists)[:1+rng.IntN(lists)]
		k := 1 + rng.IntN(n+3)
		exp := m.expect(pick, k)
		want := fullSortTopK(m, pick, k)
		if len(want) != exp.k {
			t.Fatalf("trial %d: k clamped to %d, want %d", trial, exp.k, len(want))
		}
		for i, w := range want {
			if exp.class[i] != w {
				t.Fatalf("trial %d rank %d: oracle %v, full sort %v", trial, i, exp.class[i], w)
			}
		}
		if err := exp.check(want); err != nil {
			t.Fatalf("trial %d: canonical answer rejected: %v", trial, err)
		}
	}
}

func TestOracleTieClass(t *testing.T) {
	// Objects 1, 2, 3 tie at the 2nd grade; k=2 may take any one of them.
	m := matrix{{0.9, 0.5, 0.5, 0.5, 0.1}}
	exp := m.expect([]int{0}, 2)
	for _, obj := range []int{1, 2, 3} {
		if err := exp.check([]answer{{0, 0.9}, {obj, 0.5}}); err != nil {
			t.Errorf("valid tie choice %d rejected: %v", obj, err)
		}
	}
	for name, bad := range map[string][]answer{
		"wrong grade":      {{0, 0.9}, {1, 0.4}},
		"outside class":    {{0, 0.9}, {4, 0.5}},
		"wrong top object": {{1, 0.9}, {2, 0.5}},
		"short":            {{0, 0.9}},
	} {
		if err := exp.check(bad); err == nil {
			t.Errorf("%s: accepted %v", name, bad)
		}
	}
	exp3 := m.expect([]int{0}, 3)
	if err := exp3.check([]answer{{0, 0.9}, {2, 0.5}, {2, 0.5}}); err == nil {
		t.Error("a repeated tie-class object was accepted")
	}
}

func TestOracleShadowWrites(t *testing.T) {
	s := specs(true)[2] // embed_writes, small
	in, err := setUp(s, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	o := newOracle(in.dbs[0])
	lists := []int{0, 1, 2}
	before := o.m.expect(lists, 1).class[0]
	// Raise some other object to the top of all three lists.
	winner := (before.Object + 1) % s.n
	for _, l := range lists {
		o.write(l, winner, 0.99999)
	}
	if err := o.check(lists, 1, []answer{before}); err == nil {
		t.Error("stale answer accepted after the shadow matrix was written")
	}
	if err := o.check(lists, 1, []answer{{winner, 0.99999}}); err != nil {
		t.Errorf("answer after writes rejected: %v", err)
	}
}
