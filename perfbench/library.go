package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	alae "repro"
	"repro/internal/exp"
	"repro/internal/seq"
)

// libraryQueries is how many distinct queries a library workload
// generates; a closed loop that runs out stops early (and says so).
const libraryQueries = 600

// The exactness gates of the two library workloads at seed 42: the
// first two queries' reference entries, hits and (protein) emitted
// cells, as the repository has always reported them.
var gates = map[string]struct{ entries, hits, emitted int64 }{
	"dna-long":     {entries: 2752628, hits: 23256},
	"protein-emit": {entries: 6881447, hits: 474980, emitted: 6990088},
}

// gateSeed is the seed of the exactness gates. Its generated text is
// each workload's database at every seed; the seed draws what arrives
// (see libraryWorkload).
const gateSeed = 42

// proteinSources is how many fixed text windows protein-emit queries
// are cut from (see proteinQueries).
const proteinSources = 8

// libraryWorkload returns the database text and the queries of a
// library workload. The text is always the generator's text at
// gateSeed: a database is fixed while queries vary, and the repeat
// structure of one generated text moves per-query cost far more than
// query choice does, so a seed that redrew the text would measure a
// different database. The seed draws the queries, with the
// generator's own query shape (exp.DNAWorkload: 100-residue conserved
// segments every 2500 residues, 5% substitutions and 1% indels;
// exp.ProteinEmissionWorkload: back-half text windows, 3% substitutions
// and 0.5% indels). At gateSeed the first two queries are the
// generator's own, the two the exactness gates are defined on.
func libraryWorkload(workload string, n, qlen, numQ int, seed int64) exp.Workload {
	gen := exp.DNAWorkload
	if workload == "protein-emit" {
		gen = exp.ProteinEmissionWorkload
	}
	wl := gen(n, qlen, 2, gateSeed)
	gateQueries := wl.Queries
	rng := rand.New(rand.NewSource(seed))
	if workload == "protein-emit" {
		wl.Queries = proteinQueries(wl.Text, qlen, numQ, rng)
	} else {
		wl.Queries = seq.HomologousQueries(seq.DNA, wl.Text, numQ, qlen, 100, 2500, seq.MutationConfig{
			SubstitutionRate: 0.05, IndelRate: 0.01,
		}, rng)
	}
	if seed == gateSeed {
		copy(wl.Queries, gateQueries)
	}
	return wl
}

// proteinQueries mutates windows of the text's back half. The windows
// start at proteinSources fixed, evenly spaced positions, visited in a
// fresh seed-drawn order each round: how many repeat copies a window
// aligns against sets most of a query's cost, so every run covers the
// same windows and the seed varies the order and the mutations.
func proteinQueries(text []byte, qlen, numQ int, rng *rand.Rand) [][]byte {
	mut := seq.MutationConfig{SubstitutionRate: 0.03, IndelRate: 0.005}
	span := len(text)/2 - qlen
	out := make([][]byte, 0, numQ)
	for len(out) < numQ {
		for _, k := range rng.Perm(proteinSources) {
			src := len(text)/2 + k*span/proteinSources
			out = append(out, seq.Mutate(seq.Protein, text[src:src+qlen], mut, rng))
		}
	}
	return out[:numQ]
}

// runLibrary runs dna-long or protein-emit: one generated text in a
// single-member store, distinct queries, one client in a closed loop
// calling Store.Search with the default options.
func runLibrary(cfg *config) (*outcome, error) {
	sp := cfg.spec
	wl := libraryWorkload(cfg.workload, sp.scaled(sp.N), sp.scaled(sp.QueryLens[0]), libraryQueries, cfg.seed)
	queries := wl.Queries
	members := []member{{name: "m0", seq: wl.Text}}
	opts := alae.SearchOptions{} // E-value 10, default DNA scheme, NumCPU lanes

	o := newOutcome()
	s, err := setupStore(cfg.dir, members, wl.Alphabet, cfg.seed, opts)
	if err != nil {
		return nil, err
	}
	wl = exp.Workload{}
	st := s.st

	led := newLedger(len(queries), func(i int) *checkTask {
		return &checkTask{label: fmt.Sprintf("%s query %d", cfg.workload, i), query: queries[i], members: members}
	})
	var lat []float64
	var spent time.Duration
	next := 0
	// record files one Store.Search answer for checking.
	record := func(i int, res *alae.StoreResult, err error) {
		o.attempted++
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "query %d: %v\n", i, err)
			return
		}
		led.add(i, storeAnswer(res))
	}
	if cfg.trace {
		// The served store is not used: the traced run loads its own.
		st, s.st = nil, nil
		if lat, spent, err = traceLibrary(cfg, o, s, opts, members, queries, record); err != nil {
			return nil, err
		}
		next = len(lat)
	}
	for ; !cfg.trace && spent < cfg.seconds && next < len(queries); next++ {
		t := time.Now()
		res, err := st.Search(queries[next], opts)
		d := time.Since(t)
		spent += d
		lat = append(lat, ms(d))
		record(next, res, err)
	}
	reportLatency(o, lat)
	// The second set-up block runs without the served store: its query
	// cache holds every result of the loop.
	st, s.st = nil, nil
	if next == len(queries) {
		o.notes["queries_exhausted"] = true
	}
	if err := s.finish(o); err != nil {
		return nil, err
	}

	led.check(o)
	good := 0
	for _, t := range led.tasks[:len(lat)] {
		if t != nil && !t.answers[0].bad {
			good++ // the untraced answer is each task's first
		}
	}
	o.e2e["goodput_qps"] = float64(good) / spent.Seconds()
	if g, ok := gates[cfg.workload]; ok && cfg.seed == gateSeed && sp.scale >= 1 {
		if err := checkGate(g.entries, g.hits, g.emitted, led.tasks); err != nil {
			o.failed++
			logf("exactness gate: %v", err)
		} else {
			o.notes["gate"] = "reproduced"
		}
	}
	return o, nil
}

// checkGate compares the first two queries' reference counts with a
// gate (emitted 0 = not gated).
func checkGate(entries, hits, emitted int64, tasks []*checkTask) error {
	if len(tasks) < 2 || tasks[0] == nil || tasks[1] == nil {
		return fmt.Errorf("fewer than two queries ran")
	}
	var e, h, em int64
	for _, t := range tasks[:2] {
		if t.err != nil {
			return t.err
		}
		e += t.ref.entries
		h += int64(t.answers[0].d.n)
		em += t.ref.emitted
	}
	if e != entries || h != hits || (emitted != 0 && em != emitted) {
		return fmt.Errorf("entries %d / hits %d / emitted %d, want %d / %d / %d", e, h, em, entries, hits, emitted)
	}
	return nil
}

// traceLibrary is the traced run of a library workload. It loads the
// persisted store twice, as a plain twin and a traced store, and
// interleaves them query by query, alternating which goes first: the
// plain twin's Store.Search gives the untraced latency; on the traced
// store each query is one operation whose root span holds the public
// Store.Search and, on a query-cache miss, the replay below the cache.
// Interleaving puts both measurements of a query in the same moment of
// a shared machine, so the tracing overhead and the self-time sum are
// compared against untraced latencies of the same queries taken side
// by side. It returns the untraced latencies and their total.
func traceLibrary(cfg *config, o *outcome, s *store, opts alae.SearchOptions, members []member,
	queries [][]byte, record func(int, *alae.StoreResult, error)) ([]float64, time.Duration, error) {
	plain, err := s.reload()
	if err != nil {
		return nil, 0, err
	}
	st, err := s.reload()
	if err != nil {
		return nil, 0, err
	}
	r, err := newReplayer(st, opts, members, o)
	if err != nil {
		return nil, 0, err
	}
	defer r.close()
	tr := newTracer()
	var untraced, e2e []float64
	var plainSpent time.Duration
	cacheHits := 0
	untracedCall := func(i int) {
		t := time.Now()
		res, err := plain.Search(queries[i], opts)
		d := time.Since(t)
		plainSpent += d
		untraced = append(untraced, ms(d))
		record(i, res, err)
	}
	for i := 0; plainSpent+tr.busy < cfg.seconds && i < len(queries); i++ {
		// The untraced call and the traced Store.Search run back to
		// back, before the replay, alternating which goes first: the
		// first of the two pays for the previous replay's garbage.
		if i%2 == 0 {
			untracedCall(i)
		}
		q := queries[i]
		root := tr.beginOp("search")
		var res *alae.StoreResult
		d := tr.call(root, "store.search", func() { res, err = st.Search(q, opts) })
		record(i, res, err)
		if i%2 == 1 {
			untracedCall(i)
		}
		if err == nil {
			e2e = append(e2e, ms(d))
			if res.Stats.QueryCacheHits > 0 {
				cacheHits++
				tr.cacheHit(root)
			} else {
				sres, err := r.below(tr, root, q, res.Threshold, len(res.Hits))
				record(i, sres, err)
			}
		}
		tr.end(root)
	}
	base := median(untraced)
	ratios := r.finish(tr, o)
	storeLayers(o, tr, e2e, st, float64(cacheHits), base)
	return untraced, plainSpent, writeTrace(cfg, tr, o, base, ratios)
}

// storeLayers records the store layer's own metrics and the tracing
// overhead: the traced Store.Search median against the untraced one.
func storeLayers(o *outcome, tr *tracer, e2e []float64, st *alae.Store, cacheHits, untracedP50 float64) {
	o.layer["store.search_ms"] = median(e2e)
	o.layer["store.front_self_ms"] = median(tr.layerSelfMS()["store.front"])
	o.layer["store.cache_hit_ratio"] = ratio(cacheHits, float64(len(e2e)))
	o.layer["store.generations"] = float64(st.Generations())
	o.layer["bench.trace_overhead_frac"] = ratio(median(e2e), untracedP50) - 1
}

// writeTrace writes the spans file and the per-layer summary.
func writeTrace(cfg *config, tr *tracer, o *outcome, untracedP50 float64, ratios []ratioRow) error {
	if err := checkNesting(tr.spans); err != nil {
		return err
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	o.notes["spans_file"] = path
	summarise(os.Stderr, tr, o, untracedP50, ratios)
	return nil
}

// reportLatency records the latency metrics of lat (ms) with the tail's
// percentile and sample count, and returns the median.
func reportLatency(o *outcome, lat []float64) float64 {
	tl, pct := tail(lat)
	o.e2e["latency_p50_ms"] = median(lat)
	o.e2e["latency_tail_ms"] = tl
	o.notes["latency_tail_pct"] = pct
	o.notes["latency_samples"] = len(lat)
	return median(lat)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
