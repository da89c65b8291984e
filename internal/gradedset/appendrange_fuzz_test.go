package gradedset

import (
	"math/rand"
	"slices"
	"testing"
)

// FuzzListAppendRange checks AppendRange against Entry over a random
// version of a list: a random base, a chain of Updated writes (raises to
// the top, lowers to the bottom, moves in between) long enough to fold
// the ⌈√N⌉ overlay, then a span [lo, hi) appended to a non-empty dst. The
// result must be dst followed by Entry(r) for r in [lo, hi), with dst's
// own elements untouched.
func FuzzListAppendRange(f *testing.F) {
	f.Add(int64(1), uint16(17), uint16(5), uint16(3), uint16(9), uint8(2), false)
	f.Add(int64(2), uint16(1000), uint16(40), uint16(100), uint16(900), uint8(7), true)
	f.Add(int64(3), uint16(64), uint16(200), uint16(0), uint16(64), uint8(1), false)
	f.Add(int64(4), uint16(1), uint16(3), uint16(0), uint16(1), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, size, writes, lo16, span16 uint16, dstLen uint8, spare bool) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%1024
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Object: i, Grade: float64(rng.Intn(9)) / 8}
		}
		l, err := NewList(es)
		if err != nil {
			t.Fatal(err)
		}
		for range int(writes) % (3*foldAt(n) + 2) {
			g := float64(rng.Intn(9)) / 8
			switch rng.Intn(3) {
			case 0:
				g = 1
			case 1:
				g = 0
			}
			if l, err = l.Updated(rng.Intn(n), g); err != nil {
				t.Fatal(err)
			}
		}
		lo := int(lo16) % (n + 1)
		hi := lo + int(span16)%(n-lo+1)

		d := 1 + int(dstLen)%8
		capacity := d
		if spare {
			capacity += hi - lo + rng.Intn(4) // room to append in place
		}
		dst := make([]Entry, d, capacity)
		for i := range dst {
			dst[i] = Entry{Object: -1 - i, Grade: 0.5}
		}
		before := slices.Clone(dst)

		got := l.AppendRange(dst, lo, hi)
		want := before
		for r := lo; r < hi; r++ {
			want = append(want, l.Entry(r))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("AppendRange(dst, %d, %d) over N = %d = %v, want %v", lo, hi, n, got, want)
		}
		if !slices.Equal(dst, before) {
			t.Fatalf("AppendRange(dst, %d, %d) wrote dst's own elements: %v, was %v", lo, hi, dst, before)
		}
	})
}
