package main

import (
	"fmt"
	"math/rand"
	"time"

	alae "repro"
	"repro/internal/exp"
	"repro/internal/seq"
)

// churnCycle is what one store-churn cycle did.
type churnCycle struct {
	appendD, deleteD, compactD time.Duration
	compacted                  bool
	searches                   []churnSearch
	written, appended, purged  int64
}

type churnSearch struct {
	d      time.Duration
	gens   int
	ref    answerRef
	ok     bool // answered (its correctness is ref's)
	cached bool // answered from the query cache
}

// churner drives the store-churn cycles against one directory-backed
// store. Cycle c's inputs come from a generator seeded with (seed, c),
// so a seed gives the same inputs however many cycles a run reaches.
type churner struct {
	cfg   *config
	st    *alae.Store
	live  []member
	watch *writeWatch
	led   *ledger
	opts  alae.SearchOptions
	n     int // cycles run
	o     *outcome
}

func (c *churner) fail(what string, err error) {
	c.o.failed++
	logf("store-churn cycle %d: %s: %v", c.n, what, err)
}

// cycle runs one cycle: Append one member, Delete the oldest live
// member, run the searches, and Compact every compact_every cycles. If
// tr is non-nil every call is a span under one root per cycle.
func (c *churner) cycle(tr *tracer) churnCycle {
	sp := c.cfg.spec
	cs := int64(c.cfg.seed)*1_000_003 + int64(c.n)
	rng := rand.New(rand.NewSource(cs))
	add := member{name: fmt.Sprintf("a%05d", c.n), seq: exp.DNAWorkload(sp.scaled(sp.AppendLen), 150, 0, cs).Text}
	var out churnCycle
	root := 0
	if tr != nil {
		root = tr.beginOp("cycle")
	}
	timed := func(name string, fn func()) time.Duration {
		if tr != nil {
			return tr.call(root, name, fn)
		}
		t := time.Now()
		fn()
		return time.Since(t)
	}
	written := func() {
		n, err := c.watch.written()
		if err != nil {
			c.fail("sizing the store directory", err)
		}
		out.written += n
	}

	var err error
	c.o.attempted++
	out.appendD = timed("storegen.append", func() { err = c.st.Append([]alae.SeqRecord{{Name: add.name, Seq: add.seq}}) })
	if err != nil {
		c.fail("Append", err)
	} else {
		c.live = append(c.live, add)
		out.appended = int64(len(add.seq))
	}
	written()

	c.o.attempted++
	var deleted int
	out.deleteD = timed("storegen.delete", func() { deleted, err = c.st.Delete(c.live[0].name) })
	if err == nil && deleted != 1 {
		err = fmt.Errorf("deleted %d members, want 1", deleted)
	}
	if err != nil {
		c.fail("Delete", err)
	} else {
		c.live = c.live[1:]
	}
	written()

	live := append([]member(nil), c.live...)
	for j := 0; j < sp.SearchesPerCycle; j++ {
		m := live[rng.Intn(len(live))]
		lo, hi := sp.scaled(sp.QueryLenMin), sp.scaled(sp.QueryLenMax)
		q := homologousQuery(m.seq, lo+rng.Intn(hi-lo+1), rng)
		c.o.attempted++
		var res *alae.StoreResult
		s := churnSearch{gens: c.st.Generations()}
		s.d = timed("store.search", func() { res, err = c.st.Search(q, c.opts) })
		if err != nil {
			c.fail("Search", err)
		} else {
			task := &checkTask{label: fmt.Sprintf("store-churn cycle %d search %d", c.n, j), query: q, members: live}
			_, s.ref = c.led.addNew(task, storeAnswer(res))
			s.ok, s.cached = true, res.Stats.QueryCacheHits > 0
		}
		out.searches = append(out.searches, s)
	}

	if (c.n+1)%sp.CompactEvery == 0 {
		c.o.attempted++
		var cst alae.CompactStats
		out.compactD = timed("storegen.compact", func() { cst, err = c.st.Compact() })
		out.compacted = true
		if err != nil {
			c.fail("Compact", err)
		}
		out.purged = int64(cst.PurgedBytes)
		written()
	}
	if tr != nil {
		tr.end(root)
	}
	c.n++
	return out
}

// runChurn runs writes beside reads on a directory-backed store: each
// cycle appends a member, deletes the oldest, searches, and compacts
// every few cycles.
func runChurn(cfg *config) (*outcome, error) {
	sp := cfg.spec
	text := exp.DNAWorkload(sp.scaled(sp.N), 150, 0, gateSeed).Text // the initial database; the seed draws the cycles
	members := splitMembers(text, sp.Members)

	o := newOutcome()
	s, err := setupStore(cfg.dir, members, seq.DNA, cfg.seed, alae.SearchOptions{})
	if err != nil {
		return nil, err
	}
	text = nil
	watch, err := newWriteWatch(s.dir)
	if err != nil {
		return nil, err
	}
	c := &churner{cfg: cfg, st: s.st, live: members, watch: watch, led: &ledger{}, o: o}

	// A traced run alternates untraced and traced cycles, so the
	// untraced base and the traced searches share the run's moments.
	var tr *tracer
	if cfg.trace {
		r, err := newReplayer(nil, alae.SearchOptions{}, members, o) // the index and domination builds only
		if err != nil {
			return nil, err
		}
		r.close()
		tr = newTracer()
	}
	var untraced, traced []churnCycle
	var spent, untracedSpent time.Duration
	for spent < cfg.seconds {
		if cfg.trace && c.n%2 == 1 {
			cy := c.cycle(tr)
			spent += cy.total()
			traced = append(traced, cy)
			continue
		}
		cy := c.cycle(nil)
		spent += cy.total()
		untracedSpent += cy.total()
		untraced = append(untraced, cy)
	}
	lat := searchLatencies(untraced)
	p50 := reportLatency(o, lat)
	o.notes["cycles"] = c.n

	if cfg.trace {
		churnLayers(o, append(untraced, traced...))
		var e2e, gens []float64
		cacheHits := 0.0
		for _, cy := range traced {
			for _, s := range cy.searches {
				e2e = append(e2e, ms(s.d))
				gens = append(gens, float64(s.gens))
				if s.cached {
					cacheHits++
				}
			}
		}
		storeLayers(o, tr, e2e, s.st, cacheHits, p50)
		o.layer["store.generations"] = median(gens)
		if err := writeTrace(cfg, tr, o, p50, nil); err != nil {
			return nil, err
		}
	}

	c.st = nil
	if err := s.finish(o); err != nil {
		return nil, err
	}
	c.led.check(o)
	good := 0
	for _, cy := range untraced {
		for _, s := range cy.searches {
			if s.ok && !s.ref.bad() {
				good++
			}
		}
	}
	o.e2e["goodput_qps"] = float64(good) / untracedSpent.Seconds()
	return o, nil
}

// total is the cycle's operation time.
func (cy churnCycle) total() time.Duration {
	d := cy.appendD + cy.deleteD + cy.compactD
	for _, s := range cy.searches {
		d += s.d
	}
	return d
}

func searchLatencies(cycles []churnCycle) []float64 {
	var lat []float64
	for _, cy := range cycles {
		for _, s := range cy.searches {
			lat = append(lat, ms(s.d))
		}
	}
	return lat
}

// churnLayers records the storegen layer's metrics over cycles.
func churnLayers(o *outcome, cycles []churnCycle) {
	var app, del, comp []float64
	var written, appended, purged int64
	for _, cy := range cycles {
		app = append(app, ms(cy.appendD))
		del = append(del, ms(cy.deleteD))
		if cy.compacted {
			comp = append(comp, ms(cy.compactD))
		}
		written += cy.written
		appended += cy.appended
		purged += cy.purged
	}
	o.layer["storegen.append_ms"] = median(app)
	o.layer["storegen.delete_ms"] = median(del)
	o.layer["storegen.compact_ms"] = median(comp)
	o.layer["storegen.bytes_written"] = float64(written)
	o.layer["storegen.purged_bytes"] = float64(purged)
	o.layer["storegen.write_amp"] = ratio(float64(written), float64(appended))
}
