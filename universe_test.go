package fuzzydb_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fuzzydb"
	"fuzzydb/internal/agg"
	"fuzzydb/internal/core"
	"fuzzydb/internal/gradedset"
	"fuzzydb/internal/subsys"
)

// hinted declares the universe {0,…,Len()−1} through the deprecated
// subsys.UniverseHinter, whatever objects the source actually names.
type hinted struct{ subsys.Source }

func (h hinted) Universe() (int, bool) { return h.Len(), true }

// fixedSubsystem answers every target with one source.
type fixedSubsystem struct {
	attr string
	src  subsys.Source
}

func (s fixedSubsystem) Attribute() string                   { return s.attr }
func (s fixedSubsystem) Size() int                           { return s.src.Len() }
func (s fixedSubsystem) Query(string) (subsys.Source, error) { return s.src, nil }

// outsideUniverseSources are two 50-object lists whose best entry is
// object 1000, outside their universe 0…49, in place of object 49.
func outsideUniverseSources(t *testing.T, hint bool) []subsys.Source {
	t.Helper()
	const n = 50
	srcs := make([]subsys.Source, 2)
	for i := range srcs {
		es := make([]gradedset.Entry, n)
		for obj := 0; obj < n-1; obj++ {
			es[obj] = gradedset.Entry{Object: obj, Grade: float64(obj+i) / 100}
		}
		es[n-1] = gradedset.Entry{Object: 1000, Grade: 1}
		l, err := gradedset.NewList(es)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = subsys.FromList(l)
		if hint {
			srcs[i] = hinted{srcs[i]}
		}
	}
	return srcs
}

// TestSortedAccessOutsideUniverseFails: a source whose sorted access
// names an object outside 0…N−1 fails its list with a *SourceError
// wrapping ErrOutsideUniverse — whether or not it declares the universe,
// under the serial and the pipelined executor and through the engine —
// and no answer is returned.
func TestSortedAccessOutsideUniverseFails(t *testing.T) {
	for _, hint := range []bool{false, true} {
		runs := map[string]func() (int, error){
			"serial": func() (int, error) {
				res, _, err := core.Evaluate(context.Background(), core.A0{}, outsideUniverseSources(t, hint), agg.Min, 3)
				return len(res), err
			},
			"pipelined": func() (int, error) {
				res, _, err := core.Evaluate(context.Background(), core.A0{}, outsideUniverseSources(t, hint), agg.Min, 3,
					core.WithExecutor(core.Pipelined{P: 4}))
				return len(res), err
			},
			"engine": func() (int, error) {
				srcs := outsideUniverseSources(t, hint)
				eng, err := fuzzydb.NewEngine([]fuzzydb.Subsystem{fixedSubsystem{"A", srcs[0]}, fixedSubsystem{"B", srcs[1]}})
				if err != nil {
					t.Fatal(err)
				}
				q, err := fuzzydb.ParseQuery(`A = "*" AND B = "*"`)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := eng.Query(context.Background(), q, fuzzydb.TopN(3))
				if rep != nil {
					return len(rep.Results), err
				}
				return 0, err
			},
		}
		for name, run := range runs {
			t.Run(fmt.Sprintf("%s/hint=%t", name, hint), func(t *testing.T) {
				n, err := run()
				var se *subsys.SourceError
				if !errors.As(err, &se) || !errors.Is(err, subsys.ErrOutsideUniverse) {
					t.Fatalf("err = %v, want a *subsys.SourceError wrapping ErrOutsideUniverse", err)
				}
				if se.Random || se.Rank != 0 {
					t.Errorf("failure at rank %d (random %t), want sorted rank 0", se.Rank, se.Random)
				}
				if n != 0 {
					t.Errorf("%d results returned alongside the failure", n)
				}
			})
		}
	}
}
