package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/seq"
)

// cancelWorkload builds a homologous search big enough that a
// cancelled context lands mid-traversal: text n, query a mutated
// m-long segment of it.
func cancelWorkload(n, m int, seed int64) (text, query []byte) {
	rng := rand.New(rand.NewSource(seed))
	text = randDNA(n, rng)
	query = seq.Mutate(seq.DNA, text[n/4:n/4+m],
		seq.MutationConfig{SubstitutionRate: 0.05, IndelRate: 0.01}, rng)
	return text, query
}

// TestSearchContextCancellation pins the cancellation contract on both
// engine modes, sequential and parallel: a cancelled context returns
// its error with a bounded amount of work done, and the session stays
// fully reusable — the next search over the same session reproduces
// the uncancelled hit set and entry counts exactly.
func TestSearchContextCancellation(t *testing.T) {
	text, query := cancelWorkload(15_000, 500, 900)
	s := align.DefaultDNA
	h := 45

	for _, mode := range []Mode{ModeDFS, ModeHybrid} {
		for _, workers := range []int{1, 4} {
			name := map[Mode]string{ModeDFS: "dfs", ModeHybrid: "hybrid"}[mode]
			if workers > 1 {
				name += "/parallel"
			} else {
				name += "/sequential"
			}
			t.Run(name, func(t *testing.T) {
				e := New(text, Options{Mode: mode})
				ses := e.AcquireSession()
				defer ses.Release()
				c := align.NewCollector()

				// Reference: the uncancelled answer through the same session.
				refStats, err := ses.SearchLanes(context.Background(), query, s, h, c, workers)
				if err != nil {
					t.Fatal(err)
				}
				refHits := c.Hits()
				if len(refHits) == 0 {
					t.Fatal("workload produced no hits; the test is vacuous")
				}

				// A context cancelled before the search starts must be
				// observed at the first checkpoint of every worker: the
				// context's error comes back and at most one entry budget
				// per worker was spent.
				cancelled, cancel := context.WithCancel(context.Background())
				cancel()
				c.Reset()
				st, err := ses.SearchLanes(cancelled, query, s, h, c, workers)
				if err != context.Canceled {
					t.Fatalf("pre-cancelled search returned %v, want context.Canceled", err)
				}
				bound := int64(workers) * 2 * cancelEntryBudget
				if ce := st.CalculatedEntries(); ce > bound {
					t.Fatalf("pre-cancelled search calculated %d entries, budget bound is %d", ce, bound)
				}
				if ce, ref := st.CalculatedEntries(), refStats.CalculatedEntries(); ce >= ref {
					t.Fatalf("pre-cancelled search did all the work: %d of %d entries", ce, ref)
				}

				// Cancel mid-flight: the search must stop with the
				// context's error. (If this machine finished the whole
				// search before the timer fired, the run proves nothing
				// extra but must still have succeeded cleanly.)
				midCtx, midCancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(time.Millisecond, midCancel)
				c.Reset()
				_, err = ses.SearchLanes(midCtx, query, s, h, c, workers)
				timer.Stop()
				midCancel()
				if err != nil && err != context.Canceled {
					t.Fatalf("mid-flight cancel returned %v", err)
				}

				// The session must be reusable after cancellation, with
				// byte-identical results.
				c.Reset()
				st, err = ses.SearchLanes(context.Background(), query, s, h, c, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !align.EqualHits(c.Hits(), refHits) {
					t.Fatal("post-cancellation search diverged from the reference hit set")
				}
				if st.CalculatedEntries() != refStats.CalculatedEntries() {
					t.Fatalf("post-cancellation entries %d, reference %d",
						st.CalculatedEntries(), refStats.CalculatedEntries())
				}
			})
		}
	}
}

// TestSearchContextDeadline exercises the deadline path specifically:
// an already-expired deadline returns context.DeadlineExceeded.
func TestSearchContextDeadline(t *testing.T) {
	text, query := cancelWorkload(10_000, 400, 901)
	e := New(text, Options{})
	ses := e.AcquireSession()
	defer ses.Release()
	c := align.NewCollector()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := ses.SearchLanes(ctx, query, align.DefaultDNA, 30, c, 1); err != context.DeadlineExceeded {
		t.Fatalf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}

	c.Reset()
	if _, err := ses.SearchLanes(context.Background(), query, align.DefaultDNA, 30, c, 1); err != nil {
		t.Fatalf("search after expired-deadline search: %v", err)
	}
}
