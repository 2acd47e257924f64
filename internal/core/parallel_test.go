package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/align"
)

// TestSearchParallelMatchesSequential is the scheduler's identity
// property: for both engine modes, any worker count produces exactly
// the sequential engine's hit set and the same work counters — the
// partition into fork families is identical, only the interleaving
// changes.
func TestSearchParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	s := align.DefaultDNA
	for _, mode := range []Mode{ModeDFS, ModeHybrid} {
		e := New(randDNA(4000, rng), Options{Mode: mode})
		for trial := 0; trial < 6; trial++ {
			query := randDNA(150+rng.Intn(250), rng)
			h := s.MinThreshold() + rng.Intn(8)

			seqC := align.NewCollector()
			seqSt, err := e.Search(query, s, h, seqC)
			if err != nil {
				t.Fatal(err)
			}
			want := seqC.Hits()

			for _, workers := range []int{0, 2, 3, 7} {
				parC := align.NewCollector()
				parSt, err := e.SearchParallel(query, s, h, parC, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got := parC.Hits(); !align.EqualHits(got, want) {
					t.Fatalf("mode %v workers %d trial %d: %d hits vs %d sequential",
						mode, workers, trial, len(got), len(want))
				}
				if parSt.CalculatedEntries() != seqSt.CalculatedEntries() {
					t.Fatalf("mode %v workers %d trial %d: CalculatedEntries %d vs %d",
						mode, workers, trial, parSt.CalculatedEntries(), seqSt.CalculatedEntries())
				}
				if parSt.ForksStarted != seqSt.ForksStarted ||
					parSt.NodesVisited != seqSt.NodesVisited ||
					parSt.MaxDepth != seqSt.MaxDepth {
					t.Fatalf("mode %v workers %d trial %d: stats diverge: %+v vs %+v",
						mode, workers, trial, parSt, seqSt)
				}
			}
		}
	}
}

// TestSearchLanesMatchesSequential pins the contract the store's
// shared-index scatter rides on: SearchLanes with any lane count
// produces the sequential engine's exact hit set and work counters —
// entries included — because each family is processed exactly once on
// exactly one lane.
func TestSearchLanesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(780))
	s := align.DefaultDNA
	e := New(randDNA(4000, rng), Options{})
	ses := e.AcquireSession()
	defer ses.Release()
	for trial := 0; trial < 4; trial++ {
		query := randDNA(150+rng.Intn(250), rng)
		h := s.MinThreshold() + rng.Intn(8)

		seqC := align.NewCollector()
		seqSt, err := e.Search(query, s, h, seqC)
		if err != nil {
			t.Fatal(err)
		}
		want := seqC.Hits()

		for _, lanes := range []int{1, 2, 4, 9} {
			c := align.NewCollector()
			st, err := ses.SearchLanes(context.Background(), query, s, h, c, lanes)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Hits(); !align.EqualHits(got, want) {
				t.Fatalf("lanes %d trial %d: %d hits vs %d sequential", lanes, trial, len(got), len(want))
			}
			if st.CalculatedEntries() != seqSt.CalculatedEntries() ||
				st.ForksStarted != seqSt.ForksStarted ||
				st.NodesVisited != seqSt.NodesVisited {
				t.Fatalf("lanes %d trial %d: stats diverge: %+v vs %+v", lanes, trial, st, seqSt)
			}
		}
	}
}
