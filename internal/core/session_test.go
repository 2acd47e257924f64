package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/qgram"
	"repro/internal/seq"
)

// Session and cross-query gram-cache tests: a session must be a pure
// serving lane (re-arming changes nothing observable), and the cache
// must only move resolution work, never change its outcome — cold or
// hot, sequential or concurrent, with or without eviction pressure.

// TestSessionReuseIdenticalAcrossQueries runs an interleaved query
// stream twice through one re-armed session and through fresh
// one-shot searches; hits and work stats must match pairwise, with the
// second session pass resolving entirely from the warm cache.
func TestSessionReuseIdenticalAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	text := randDNA(6000, rng)
	s := align.DefaultDNA
	queries := [][]byte{
		seq.Mutate(seq.DNA, text[100:600], seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng),
		randDNA(300, rng),
		seq.Mutate(seq.DNA, text[3000:3400], seq.MutationConfig{SubstitutionRate: 0.08, IndelRate: 0.02}, rng),
	}
	for _, mode := range []Mode{ModeDFS, ModeHybrid} {
		e := New(text, Options{Mode: mode})
		ses := e.AcquireSession()
		for pass := 0; pass < 2; pass++ {
			for qi, query := range queries {
				h := 15
				cSes := align.NewCollector()
				stSes, err := ses.Search(query, s, h, cSes, 1)
				if err != nil {
					t.Fatal(err)
				}
				// Fresh engine = fresh session AND cold cache.
				cFresh := align.NewCollector()
				stFresh, err := New(text, Options{Mode: mode}).Search(query, s, h, cFresh)
				if err != nil {
					t.Fatal(err)
				}
				if !align.EqualHits(cSes.Hits(), cFresh.Hits()) {
					t.Fatalf("mode %v pass %d query %d: re-armed session hits diverge from fresh", mode, pass, qi)
				}
				if stSes.CalculatedEntries() != stFresh.CalculatedEntries() ||
					stSes.NodesVisited != stFresh.NodesVisited ||
					stSes.ForksAbsent != stFresh.ForksAbsent {
					t.Fatalf("mode %v pass %d query %d: work stats diverge: %+v vs %+v",
						mode, pass, qi, stSes, stFresh)
				}
				if pass == 1 && stSes.GramCacheMisses != 0 {
					t.Errorf("mode %v query %d: %d cache misses on the hot pass", mode, qi, stSes.GramCacheMisses)
				}
				if pass == 1 && stSes.GramCacheHits == 0 {
					t.Errorf("mode %v query %d: no cache hits on the hot pass", mode, qi)
				}
			}
		}
	}
}

// TestGramCacheDisabledIdentical pins that the cache is invisible:
// GramCacheSize < 0 must give the same hits and work counters.
func TestGramCacheDisabledIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	text := randDNA(3000, rng)
	query := seq.Mutate(seq.DNA, text[200:700], seq.MutationConfig{SubstitutionRate: 0.06, IndelRate: 0.02}, rng)
	s := align.DefaultDNA
	h := 14

	withC, withoutC := align.NewCollector(), align.NewCollector()
	eWith := New(text, Options{})
	eWithout := New(text, Options{GramCacheSize: -1})
	stWith, err := eWith.Search(query, s, h, withC)
	if err != nil {
		t.Fatal(err)
	}
	stWithout, err := eWithout.Search(query, s, h, withoutC)
	if err != nil {
		t.Fatal(err)
	}
	if !align.EqualHits(withC.Hits(), withoutC.Hits()) {
		t.Fatal("cache changed the hit set")
	}
	if stWithout.GramCacheHits != 0 || stWithout.GramCacheMisses != 0 {
		t.Fatalf("disabled cache still counted: %+v", stWithout)
	}
	stWith.GramCacheHits, stWith.GramCacheMisses = 0, 0
	if stWith != stWithout {
		t.Fatalf("cache changed work stats: %+v vs %+v", stWith, stWithout)
	}
}

// TestGramCacheEvictionStaysCorrect forces heavy LRU churn (capacity
// far below the distinct-gram count) and checks results never change.
func TestGramCacheEvictionStaysCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	text := randDNA(4000, rng)
	s := align.DefaultDNA
	e := New(text, Options{GramCacheSize: 8})
	ref := New(text, Options{GramCacheSize: -1})
	for trial := 0; trial < 4; trial++ {
		query := seq.Mutate(seq.DNA, text[trial*500:trial*500+400],
			seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.02}, rng)
		h := 14
		got, want := align.NewCollector(), align.NewCollector()
		if _, err := e.Search(query, s, h, got); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Search(query, s, h, want); err != nil {
			t.Fatal(err)
		}
		if !align.EqualHits(got.Hits(), want.Hits()) {
			t.Fatalf("trial %d: eviction-pressured cache diverged", trial)
		}
		if gc := e.gramCacheFor(s.Q()); gc.len() > 8 {
			t.Fatalf("trial %d: cache grew to %d entries, capacity 8", trial, gc.len())
		}
	}
}

// TestGramCacheSingleFlightConcurrent hammers one cold cache from many
// goroutines resolving the same query; run under -race this is the
// data-race check for acquire/publish and the occurrence memo, and
// every searcher must see identical hits.
func TestGramCacheSingleFlightConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	text := randDNA(3000, rng)
	query := seq.Mutate(seq.DNA, text[1000:1300], seq.MutationConfig{SubstitutionRate: 0.04, IndelRate: 0.01}, rng)
	s := align.DefaultDNA
	h := 20
	e := New(text, Options{})
	if _, err := e.DominationIndex(s.Q()); err != nil {
		t.Fatal(err)
	}
	want := align.NewCollector()
	if _, err := New(text, Options{}).Search(query, s, h, want); err != nil {
		t.Fatal(err)
	}
	wantHits := want.Hits()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				c := align.NewCollector()
				if _, err := e.Search(query, s, h, c); err != nil {
					errs <- err
					return
				}
				if !align.EqualHits(c.Hits(), wantHits) {
					errs <- errDiverged
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every distinct present-or-absent gram resolved exactly once
	// in total: misses across all searches == cache population.
	gc := e.gramCacheFor(s.Q())
	if gc.len() == 0 {
		t.Fatal("cache empty after concurrent searches")
	}
}

var errDiverged = &divergedError{}

type divergedError struct{}

func (*divergedError) Error() string { return "concurrent cached search diverged" }

// BenchmarkGramResolution isolates what the cross-query cache
// accelerates: resolving every distinct gram of a query against the
// index. walk is the uncached prefix-shared trie pass; cached runs
// against a warm cache (every gram a hash probe). The ratio is the
// serving path's per-query resolution saving; end-to-end impact scales
// with the resolution share of the whole search. DNA (packed rank,
// q=11, long shared prefixes) and protein (byte rank, q=4) have very
// different walk costs, so both run.
func BenchmarkGramResolution(b *testing.B) {
	rng := rand.New(rand.NewSource(504))
	bench := func(b *testing.B, text, query []byte, s align.Scheme) {
		run := func(b *testing.B, e *Engine) {
			qidx, err := qgram.New(query, s.Q(), e.trie.Letters())
			if err != nil {
				b.Fatal(err)
			}
			ses := e.AcquireSession()
			var st Stats
			ses.resolveFamilies(qidx, &st) // warm cache and session buffers
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				st = Stats{}
				ses.resolveFamilies(qidx, &st)
			}
		}
		b.Run("walk", func(b *testing.B) { run(b, New(text, Options{GramCacheSize: -1})) })
		b.Run("cached", func(b *testing.B) { run(b, New(text, Options{})) })
	}
	b.Run("dna", func(b *testing.B) {
		bench(b, randDNA(200_000, rng), randDNA(5_000, rng), align.DefaultDNA)
	})
	b.Run("protein", func(b *testing.B) {
		letters := seq.Protein.Letters()
		randProt := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				out[i] = letters[rng.Intn(len(letters))]
			}
			return out
		}
		bench(b, randProt(200_000), randProt(5_000), align.DefaultProtein)
	})
}

// TestSessionSearchAllocFree is the end-to-end steady-state contract
// the ROADMAP's "qgram index reuse" item completes: with the gram
// table, the search context and the stats all session-owned and
// re-armed in place, a warm sequential Session.Search must not
// allocate at all — not just the per-gram traversal path
// (TestPerGramPathAllocFree) but the whole query: gram-table rearm,
// resolution, δ/bound table rebuild, traversal and emission.
func TestSessionSearchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	text := randDNA(20_000, rng)
	query := seq.Mutate(seq.DNA, text[2_000:2_300],
		seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
	// A repeat-dense workload keeps the emission path hot: large
	// occurrence fan-out and run staging overflows every query, so the
	// gate also covers the two-level
	// collector's steady state.
	emitText, emitQuery := emitWorkload(seq.DNA, 20_000, 300, 507)
	s := align.DefaultDNA
	h := 25
	for _, tc := range []struct {
		name        string
		opts        Options
		text, query []byte
	}{
		{"dfs-cached", Options{}, text, query},
		{"dfs-walk", Options{GramCacheSize: -1}, text, query},
		{"hybrid-cached", Options{Mode: ModeHybrid}, text, query},
		{"dfs-emit-heavy", Options{}, emitText, emitQuery},
		{"hybrid-emit-heavy", Options{Mode: ModeHybrid}, emitText, emitQuery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.text, tc.opts)
			if _, err := e.DominationIndex(s.Q()); err != nil {
				t.Fatal(err)
			}
			ses := e.AcquireSession()
			defer ses.Release()
			c := align.NewCollector()
			for warm := 0; warm < 2; warm++ {
				c.Reset()
				if _, err := ses.Search(tc.query, s, h, c, 1); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				c.Reset()
				if _, err := ses.Search(tc.query, s, h, c, 1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("warm sequential Session.Search allocated %.1f objects per query; must be 0", allocs)
			}
		})
	}
}
