package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/align"
	"repro/internal/seq"
)

// The emission-path suite: the batched run staging and the two-level
// collector must be invisible in the results — hit sets byte-identical
// to the Smith-Waterman oracle and across engine modes and parallelism
// — while the Emitted/Copied counters stay scheduling-invariant.

// emitWorkload builds a repeat-dense instance: the trie occurrence
// fan-out over near-identical repeats is what makes the emission path
// hot and stages overflow mid-row.
func emitWorkload(a *seq.Alphabet, n, m int, seed int64) (text, query []byte) {
	rng := rand.New(rand.NewSource(seed))
	text = seq.RandomGenome(a, seq.GenomeConfig{
		Length: n, RepeatFraction: 0.5, RepeatMutationRate: 0.02,
		RepeatMinLen: 100, RepeatMaxLen: 400,
	}, rng)
	src := len(text)/2 + rng.Intn(len(text)/2-m)
	query = seq.Mutate(a, text[src:src+m], seq.MutationConfig{
		SubstitutionRate: 0.03, IndelRate: 0.005,
	}, rng)
	return text, query
}

// TestEmitParitySuite pins the overhaul's acceptance gate in miniature:
// DNA and protein repeat-dense workloads, sequential / parallel /
// hybrid, all byte-identical to the oracle and to each other, with the
// emission counters invariant under worker count.
func TestEmitParitySuite(t *testing.T) {
	for _, wl := range []struct {
		name   string
		alpha  *seq.Alphabet
		scheme align.Scheme
		seed   int64
	}{
		{"dna", seq.DNA, align.DefaultDNA, 61},
		{"protein", seq.Protein, align.DefaultProtein, 62},
	} {
		t.Run(wl.name, func(t *testing.T) {
			text, query := emitWorkload(wl.alpha, 3000, 150, wl.seed)
			h := wl.scheme.MinThreshold() + 2
			want := align.LocalAll(text, query, wl.scheme, h)
			if len(want) == 0 {
				t.Fatalf("degenerate workload: no oracle hits")
			}
			for _, mode := range []Mode{ModeDFS, ModeHybrid} {
				e := New(text, Options{Mode: mode})
				seqC := align.NewCollector()
				seqSt, err := e.Search(query, wl.scheme, h, seqC)
				if err != nil {
					t.Fatal(err)
				}
				if !align.EqualHits(seqC.Hits(), want) {
					t.Fatalf("mode %v: %d hits vs oracle %d", mode, seqC.Len(), len(want))
				}
				if seqSt.EmittedHits == 0 {
					t.Fatalf("mode %v: no emissions recorded on an emitting workload", mode)
				}
				for _, workers := range []int{2, 5} {
					parC := align.NewCollector()
					parSt, err := e.SearchParallel(query, wl.scheme, h, parC, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !align.EqualHits(parC.Hits(), want) {
						t.Fatalf("mode %v workers %d: hits diverge from oracle", mode, workers)
					}
					if parSt.EmittedHits != seqSt.EmittedHits ||
						parSt.CopiedEmissions != seqSt.CopiedEmissions {
						t.Fatalf("mode %v workers %d: emission counters not scheduling-invariant: emitted %d/%d copied %d/%d",
							mode, workers, parSt.EmittedHits, seqSt.EmittedHits,
							parSt.CopiedEmissions, seqSt.CopiedEmissions)
					}
				}
			}
		})
	}
}

// TestHybridEmitParity is the vertical-phase overhaul's acceptance
// gate in miniature: on repeat-dense DNA and protein workloads the
// hybrid engine's hit set is byte-identical to the DFS engine's, its
// EmittedHits stays within 10% of DFS's (the watermark keeps re-walked
// branches from re-forwarding their shared rows), and the copy path
// actually fires (CopiedEmissions > 0 — branch-heavy repeats guarantee
// shared prefixes).
func TestHybridEmitParity(t *testing.T) {
	for _, wl := range []struct {
		name   string
		alpha  *seq.Alphabet
		scheme align.Scheme
		seed   int64
	}{
		{"dna", seq.DNA, align.DefaultDNA, 71},
		{"protein", seq.Protein, align.DefaultProtein, 72},
	} {
		t.Run(wl.name, func(t *testing.T) {
			text, query := emitWorkload(wl.alpha, 6000, 200, wl.seed)
			h := wl.scheme.MinThreshold() + 2

			dfs := New(text, Options{Mode: ModeDFS})
			dfsC := align.NewCollector()
			dfsSt, err := dfs.Search(query, wl.scheme, h, dfsC)
			if err != nil {
				t.Fatal(err)
			}
			hyb := New(text, Options{Mode: ModeHybrid})
			hybC := align.NewCollector()
			hybSt, err := hyb.Search(query, wl.scheme, h, hybC)
			if err != nil {
				t.Fatal(err)
			}

			if !align.EqualHits(hybC.Hits(), dfsC.Hits()) {
				t.Fatalf("hybrid hits diverge from DFS (%d vs %d)", hybC.Len(), dfsC.Len())
			}
			if dfsSt.EmittedHits == 0 {
				t.Fatal("degenerate workload: DFS emitted nothing")
			}
			if lo, hi := dfsSt.EmittedHits*9/10, dfsSt.EmittedHits*11/10; hybSt.EmittedHits < lo || hybSt.EmittedHits > hi {
				t.Fatalf("hybrid EmittedHits %d outside 10%% of DFS %d", hybSt.EmittedHits, dfsSt.EmittedHits)
			}
			if hybSt.CopiedEmissions == 0 {
				t.Fatal("hybrid copy path never fired on a repeat-dense workload; the watermark is dead code")
			}
			if dfsSt.CopiedEmissions != 0 {
				t.Fatalf("DFS reported %d CopiedEmissions; the counter is hybrid-only", dfsSt.CopiedEmissions)
			}
		})
	}
}

// TestPropertyCopyReuseLossless is the copy path's safety property: for
// any input, the hybrid engine with copy reuse produces exactly the hit
// set of the engine without it, and the emission books balance — every
// fan-out cell is forwarded or copied, never silently dropped, so
// Emitted+Copied is invariant under the switch.
func TestPropertyCopyReuseLossless(t *testing.T) {
	s := align.DefaultDNA
	f := func(in repeatInput) bool {
		h := s.MinThreshold() + int(in.HOff)
		on := New(in.Text, Options{Mode: ModeHybrid})
		cOn := align.NewCollector()
		stOn, err := on.Search(in.Query, s, h, cOn)
		if err != nil {
			return false
		}
		off := New(in.Text, Options{Mode: ModeHybrid, DisableCopyReuse: true})
		cOff := align.NewCollector()
		stOff, err := off.Search(in.Query, s, h, cOff)
		if err != nil {
			return false
		}
		if stOff.CopiedEmissions != 0 {
			return false
		}
		if stOn.EmittedHits+stOn.CopiedEmissions != stOff.EmittedHits {
			return false
		}
		return align.EqualHits(cOn.Hits(), cOff.Hits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEmitStageOverflow drives the flush-and-retry path hard: a
// single-letter text makes every q-gram occur everywhere, so fan-out
// and run lengths overflow the fixed stage capacities many times per
// band row. The result must still match the oracle exactly.
func TestEmitStageOverflow(t *testing.T) {
	s := align.DefaultDNA
	text := make([]byte, 400)
	for i := range text {
		text[i] = 'A'
	}
	rng := rand.New(rand.NewSource(63))
	query := make([]byte, 60)
	for i := range query {
		if rng.Intn(10) == 0 {
			query[i] = 'C'
		} else {
			query[i] = 'A'
		}
	}
	h := s.MinThreshold() + 1
	want := align.LocalAll(text, query, s, h)
	for _, mode := range []Mode{ModeDFS, ModeHybrid} {
		e := New(text, Options{Mode: mode})
		c := align.NewCollector()
		st, err := e.Search(query, s, h, c)
		if err != nil {
			t.Fatal(err)
		}
		if !align.EqualHits(c.Hits(), want) {
			t.Fatalf("mode %v: %d hits vs oracle %d", mode, c.Len(), len(want))
		}
		if st.EmittedHits < int64(len(want)) {
			t.Fatalf("mode %v: EmittedHits %d below distinct hit count %d", mode, st.EmittedHits, len(want))
		}
	}
}

// repeatInput reuses the randomized generator shape of
// property_test.go but biases toward repetitive texts, where duplicate
// emissions (and so copy reuse) actually occur.
type repeatInput struct {
	Text  []byte
	Query []byte
	HOff  uint8
}

func (repeatInput) Generate(r *rand.Rand, _ int) reflect.Value {
	letters := []byte("ACGT")
	sigma := 2 + r.Intn(3) // small alphabets repeat heavily
	n := 20 + r.Intn(150)
	m := 8 + r.Intn(60)
	in := repeatInput{
		Text:  make([]byte, n),
		Query: make([]byte, m),
		HOff:  uint8(r.Intn(6)),
	}
	for i := range in.Text {
		in.Text[i] = letters[r.Intn(sigma)]
	}
	for i := range in.Query {
		in.Query[i] = letters[r.Intn(sigma)]
	}
	return reflect.ValueOf(in)
}
