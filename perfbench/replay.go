package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	alae "repro"
	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/seq"
)

// replayer replays one search below the store's query cache through
// each layer's exported entry point: the store's scatter-gather
// (StoreSession.SearchContext), gram resolution (core.Session.
// ResolveGrams, cold and then warm), the traversal at the store's lane
// count and at one lane (core.Session.SearchLanes over the same
// separator-framed text the store indexes), and result materialisation
// (Collector.Hits). It accumulates the per-layer counts as it goes.
type replayer struct {
	scheme alae.Scheme
	lanes  int
	e      *core.Engine
	ses    *core.Session
	coll   *align.Collector
	ss     *alae.StoreSession

	entries, nodes, forks, emitted, families, collHits, nsPerEntry []float64
	dominated, started, gcHits, gcAll, storeHits, collSum, emitSum float64
}

// newReplayer builds the replay engine over members (timed as the
// bwt layer's build) and its domination index (the domination layer's
// build), recording both layers' metrics in o.
func newReplayer(st *alae.Store, opts alae.SearchOptions, members []member, o *outcome) (*replayer, error) {
	r := &replayer{scheme: alae.DefaultDNAScheme, lanes: runtime.NumCPU()}
	if opts.Scheme != (alae.Scheme{}) {
		r.scheme = opts.Scheme
	}
	recs := make([]seq.Record, len(members))
	residues := 0
	for i, m := range members {
		recs[i] = seq.Record{Header: m.name, Seq: m.seq}
		residues += len(m.seq)
	}
	text := seq.NewCollection(recs).Text()
	runtime.GC()
	t := time.Now()
	r.e = core.New(text, core.Options{BarrierByte: seq.Separator})
	o.layer["bwt.build_ms"] = ms(time.Since(t))
	o.layer["bwt.index_bytes_per_residue"] = float64(r.e.Trie().Index().SizeBytes()) / float64(residues)
	t = time.Now()
	dom, err := r.e.DominationIndex(r.scheme.Q())
	if err != nil {
		return nil, fmt.Errorf("domination index: %w", err)
	}
	o.layer["domination.build_ms"] = ms(time.Since(t))
	o.layer["domination.bytes"] = float64(dom.SizeBytes())
	r.ses = r.e.AcquireSession()
	r.coll = align.NewCollector()
	if st != nil {
		if r.ss, err = st.OpenSession(opts); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// below replays query q (answered by the store at threshold h with
// storeHits hits) under root and returns the StoreSession's answer,
// which the caller checks like any other.
func (r *replayer) below(tr *tracer, root int, q []byte, h, storeHits int) (*alae.StoreResult, error) {
	cx := context.Background()
	var (
		sres     *alae.StoreResult
		fams     int
		rst, cst core.Stats
		err      error
	)
	tr.call(root, "store.session", func() { sres, err = r.ss.SearchContext(cx, q) })
	if err != nil {
		return nil, fmt.Errorf("StoreSession.SearchContext: %w", err)
	}
	tr.call(root, "core.resolve", func() { fams, rst, err = r.ses.ResolveGrams(q, r.scheme) })
	if err != nil {
		return nil, fmt.Errorf("ResolveGrams: %w", err)
	}
	d := tr.call(root, "core.search", func() {
		r.coll.Reset()
		cst, err = r.ses.SearchLanes(cx, q, r.scheme, h, r.coll, r.lanes)
	})
	if err != nil {
		return nil, fmt.Errorf("SearchLanes: %w", err)
	}
	n := r.coll.Len()
	// The gram cache belongs to the engine, so the first resolve of q
	// above ran cold and every later one, SearchLanes' own included,
	// runs warm. Timing a warm resolve too lets each subtraction pair
	// spans of the same cache state (layerSelves).
	tr.call(root, "core.resolve.warm", func() { _, _, err = r.ses.ResolveGrams(q, r.scheme) })
	if err != nil {
		return nil, fmt.Errorf("ResolveGrams: %w", err)
	}
	tr.call(root, "align.materialise", func() { _ = r.coll.Hits() })
	tr.call(root, "core.search.1", func() {
		r.coll.Reset()
		_, err = r.ses.SearchLanes(cx, q, r.scheme, h, r.coll, 1)
	})
	if err != nil {
		return nil, fmt.Errorf("SearchLanes(1): %w", err)
	}

	entries := float64(cst.CalculatedEntries())
	r.entries = append(r.entries, entries)
	r.nodes = append(r.nodes, float64(cst.NodesVisited))
	r.forks = append(r.forks, float64(cst.ForksStarted))
	r.emitted = append(r.emitted, float64(cst.EmittedHits))
	r.families = append(r.families, float64(fams))
	r.collHits = append(r.collHits, float64(n))
	if entries > 0 {
		r.nsPerEntry = append(r.nsPerEntry, float64(d.Nanoseconds())/entries)
	}
	r.dominated += float64(cst.ForksDominated)
	r.started += float64(cst.ForksStarted)
	r.gcHits += float64(rst.GramCacheHits)
	r.gcAll += float64(rst.GramCacheHits + rst.GramCacheMisses)
	r.storeHits += float64(storeHits)
	r.collSum += float64(n)
	r.emitSum += float64(cst.EmittedHits)
	return sres, nil
}

// finish records the replayed layers' metrics in o and returns the
// ratio rows for the summary.
func (r *replayer) finish(tr *tracer, o *outcome) []ratioRow {
	durs := map[string][]float64{}
	byOp, _ := tr.opDurations()
	for _, byName := range byOp {
		for name, d := range byName {
			durs[name] = append(durs[name], ms(d))
		}
	}
	selves := tr.layerSelfMS()
	searchN, search1 := median(durs["core.search"]), median(durs["core.search.1"])
	o.layer["core.search_ms"] = searchN
	o.layer["core.traverse_self_ms"] = median(selves["core.traverse"])
	o.layer["core.resolve_ms"] = median(durs["core.resolve"])
	o.layer["core.entries"] = median(r.entries)
	o.layer["core.nodes"] = median(r.nodes)
	o.layer["core.forks"] = median(r.forks)
	o.layer["core.dominated_ratio"] = ratio(r.dominated, r.started)
	o.layer["core.ns_per_entry"] = median(r.nsPerEntry)
	o.layer["core.emitted"] = median(r.emitted)
	o.layer["core.lane_efficiency"] = ratio(search1, searchN*float64(r.lanes))
	o.layer["core.families"] = median(r.families)
	o.layer["core.gram_cache_hit_ratio"] = ratio(r.gcHits, r.gcAll)
	o.layer["align.materialise_ms"] = median(durs["align.materialise"])
	o.layer["align.hits"] = median(r.collHits)
	o.layer["align.hits_per_emitted"] = ratio(r.collSum, r.emitSum)
	o.layer["store.gather_self_ms"] = median(selves["store.gather"])
	o.layer["store.gather_keep_ratio"] = ratio(r.storeHits, r.collSum)
	return []ratioRow{
		{"core.dominated_ratio", r.dominated, r.started, "forks dominated", "forks started"},
		{"core.gram_cache_hit_ratio", r.gcHits, r.gcAll, "grams from the cache", "distinct grams resolved"},
		{"core.lane_efficiency", search1, searchN * float64(r.lanes), "ms at 1 lane", fmt.Sprintf("ms at %d lanes x %d", r.lanes, r.lanes)},
		{"align.hits_per_emitted", r.collSum, r.emitSum, "collector hits", "cells emitted"},
		{"store.gather_keep_ratio", r.storeHits, r.collSum, "store hits", "collector hits"},
	}
}

// close hands the replay sessions back.
func (r *replayer) close() {
	if r.ss != nil {
		r.ss.Close()
	}
	r.ses.Release()
}
