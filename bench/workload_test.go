package main

import (
	"reflect"
	"testing"
)

func TestSequencesAreDeterministicPerSeed(t *testing.T) {
	for _, s := range specs(false) {
		a, _ := fixedSequence(s, 5, 400)
		b, _ := fixedSequence(s, 5, 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", s.name)
		}
		c, _ := fixedSequence(s, 6, 400)
		random := s.name == wServeHot || s.name == wEmbedWrites
		if random && reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 5 and 6 gave the same sequence", s.name)
		}
		for i, so := range a {
			if so.client != i%clients {
				t.Fatalf("%s: step %d is client %d, want the clients interleaved", s.name, i, so.client)
			}
		}
	}
}

// The generators a fixed sequence leaves behind continue the same
// streams: replaying a longer sequence must extend the shorter one.
func TestGeneratorsResumeAfterFixedSequence(t *testing.T) {
	for _, s := range specs(false) {
		long, _ := fixedSequence(s, 9, 60)
		short, gens := fixedSequence(s, 9, 40)
		for i := len(short); i < len(long); i++ {
			if got := gens[i%clients].next(); got != long[i].op {
				t.Fatalf("%s: step %d after resuming: %+v, want %+v", s.name, i, got, long[i].op)
			}
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	byName := map[string]spec{}
	for _, s := range specs(false) {
		byName[s.name] = s
	}

	// embed_conj sweeps every (database, combination) pair evenly.
	s := byName[wEmbedConj]
	seq, _ := fixedSequence(s, 1, s.verifyOps)
	seen := map[[2]int]int{}
	for _, so := range seq {
		seen[[2]int{so.op.db, so.op.key}]++
	}
	if want := s.dbs * len(s.keys()); len(seen) != want {
		t.Errorf("embed_conj touched %d (db, key) pairs, want %d", len(seen), want)
	}
	for pair, n := range seen {
		if n != s.verifyOps/len(seen) {
			t.Errorf("embed_conj pair %v visited %d times, want %d", pair, n, s.verifyOps/len(seen))
		}
	}

	// serve_hot has more keys than cache entries, skewed to the low ones.
	s = byName[wServeHot]
	if len(s.keys()) <= s.cache {
		t.Errorf("serve_hot: %d keys fit a cache of %d; the LRU would never churn", len(s.keys()), s.cache)
	}
	seq, _ = fixedSequence(s, 1, s.verifyOps)
	low, eighth := 0, len(s.keys())/8
	for _, so := range seq {
		if so.op.key < eighth {
			low++
		}
	}
	if frac := float64(low) / float64(len(seq)); frac < 0.45 || frac > 0.55 {
		t.Errorf("serve_hot: %.2f of requests hit the lowest eighth of the keys, want about 0.50 (u^3 skew)", frac)
	}

	// embed_writes: one write per four queries, one raise per eight
	// writes, each client on its own database, keys within the cache.
	s = byName[wEmbedWrites]
	if len(s.keys()) > s.cache {
		t.Errorf("embed_writes: %d keys exceed the cache of %d; capacity, not writes, would evict", len(s.keys()), s.cache)
	}
	seq, _ = fixedSequence(s, 1, s.verifyOps)
	writes, raises := 0, 0
	for _, so := range seq {
		if so.op.db != so.client {
			t.Fatalf("embed_writes: client %d touched database %d", so.client, so.op.db)
		}
		if so.op.write {
			writes++
			if so.op.grade > 0.9 {
				raises++
			}
		}
	}
	if writes*5 != len(seq) || raises*8 != writes {
		t.Errorf("embed_writes: %d writes (%d raises) in %d ops, want 1 in 5 and 1 in 8 of those", writes, raises, len(seq))
	}
	combos := s.combos()
	for i, c := range combos {
		for _, l := range c {
			if l/s.arity != i {
				t.Errorf("embed_writes: combination %d = %v is not its own disjoint group", i, c)
			}
		}
	}

	// remote_sources covers every pair the same number of times.
	s = byName[wRemoteSources]
	seq, _ = fixedSequence(s, 1, s.verifyOps)
	perKey := map[int]int{}
	for _, so := range seq {
		perKey[so.op.key]++
	}
	for key, n := range perKey {
		if want := s.verifyOps / len(perKey); n != want {
			t.Errorf("remote_sources: key %d asked %d times, want %d", key, n, want)
		}
	}
	if len(perKey) != len(s.keys()) {
		t.Errorf("remote_sources asked %d keys, want all %d", len(perKey), len(s.keys()))
	}
}
