package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// This file is the traced replay's span recorder. Spans are recorded
// only here, around the benchmark's own calls into each layer's
// exported entry point: the program itself carries no timers. Each
// operation gets one root span; every layer call of its replay is a
// child span of that root. Spans stay in memory and are written out
// when the run ends.
//
// A layer's callees cannot be timed inside it from outside the
// program, so a layer's self time is measured by subtraction: the
// replay calls the layer (say StoreSession.SearchContext), then calls
// the layer below it the same way the layer does (core.Session.
// SearchLanes) within the same operation, and the layer's self time is
// the difference. layerSelves lists every such pair.

// span is one timed call. Times are nanoseconds since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an operation's root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// CacheHit marks an operation whose store search the query cache
	// answered: the layers below the cache did no work on it.
	CacheHit bool `json:"cache_hit,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	spans []span
	ops   int
	busy  time.Duration // summed duration of the timed calls
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens a new operation's root span and returns its ID.
func (t *tracer) beginOp(name string) int {
	t.ops++
	return t.begin(t.ops, 0, name)
}

func (t *tracer) begin(op, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = t.now()
	return s.dur()
}

// cacheHit marks root's operation as answered by the query cache.
func (t *tracer) cacheHit(root int) { t.spans[root-1].CacheHit = true }

// call times fn as a child span of root.
func (t *tracer) call(root int, name string, fn func()) time.Duration {
	id := t.begin(t.spans[root-1].Op, root, name)
	fn()
	d := t.end(id)
	t.busy += d
	return d
}

// selfTimes returns each span's duration minus the part of its
// interval its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// checkNesting reports the first span that is not inside its parent or
// whose self time is negative.
func checkNesting(spans []span) error {
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		case p.Op != s.Op:
			return fmt.Errorf("span %d (%s) is in op %d, its parent in op %d", s.ID, s.Name, s.Op, p.Op)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	for id, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Errorf("span %d has negative self time %v", id, d)
		}
	}
	return nil
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// opDurations maps each operation to the duration of its child spans
// by name, and reports which operations the query cache answered.
func (t *tracer) opDurations() (durs map[int]map[string]time.Duration, hit map[int]bool) {
	durs, hit = map[int]map[string]time.Duration{}, map[int]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			hit[s.Op] = s.CacheHit
			continue
		}
		if durs[s.Op] == nil {
			durs[s.Op] = map[string]time.Duration{}
		}
		durs[s.Op][s.Name] += s.dur()
	}
	return durs, hit
}

// layerSelves defines each layer's self time on one operation: the
// duration of span, minus the spans of the layers it calls and plus the
// corrections in plus, all replayed in the same operation. The gram
// cache belongs to the engine, so of a query's resolves only the first
// on an engine runs cold: the public Store.Search and the replay's
// first ResolveGrams (core.resolve) are cold, while StoreSession.
// SearchContext (store.session, on the store's engine after Store.
// Search), SearchLanes (core.search) and core.resolve.warm are warm.
// Each subtraction pairs spans of one state: store.gather and
// core.traverse subtract warm from warm, and store.front, whose span
// is cold but whose callee was replayed warm, also takes off the
// cold-warm resolve gap, which core.resolve (cold) counts instead. The
// self times then sum to the cold Store.Search.
//
// store.front is Store.Search around its scatter-gather: option
// checks, the session pool and the query cache. On an operation the
// query cache answered, store.front's self time is the whole store
// search and the layers below it count 0. An operation without the
// spans a row needs (a workload with no HTTP, or no replay below the
// store) does not count for that row.
var layerSelves = []struct {
	layer, span string
	minus, plus []string
}{
	{layer: "serve", span: "serve.http"},
	{layer: "store.front", span: "store.search", minus: []string{"store.session", "core.resolve"}, plus: []string{"core.resolve.warm"}},
	{layer: "store.gather", span: "store.session", minus: []string{"core.search"}},
	{layer: "core.traverse", span: "core.search", minus: []string{"core.resolve.warm"}},
	{layer: "core.resolve", span: "core.resolve"},
}

// layerSelfMS returns, per layer, the per-operation self times in ms.
func (t *tracer) layerSelfMS() map[string][]float64 {
	out := map[string][]float64{}
	durs, hit := t.opDurations()
	for op, d := range durs {
		for _, l := range layerSelves {
			v, ok := d[l.span]
			switch {
			case l.layer == "serve":
				if !ok {
					continue
				}
			case hit[op]:
				if l.layer != "store.front" {
					v = 0
				}
			case !ok:
				continue
			default:
				if !has(d, l.minus) || !has(d, l.plus) {
					continue
				}
				for _, m := range l.minus {
					v -= d[m]
				}
				for _, p := range l.plus {
					v += d[p]
				}
			}
			out[l.layer] = append(out[l.layer], ms(v))
		}
	}
	return out
}

// has reports whether d has a duration for every name.
func has(d map[string]time.Duration, names []string) bool {
	for _, n := range names {
		if _, ok := d[n]; !ok {
			return false
		}
	}
	return true
}

// summarise fills the self-time metrics and writes the per-layer
// table: median self time per layer with its definition, then every
// count and every ratio with its base.
func summarise(w io.Writer, t *tracer, o *outcome, untracedP50 float64, ratios []ratioRow) {
	selves := t.layerSelfMS()
	var sum float64
	fmt.Fprintf(w, "\nper-layer self time over %d traced operations (medians, ms)\n", t.ops)
	fmt.Fprintf(w, "  %-14s %10s  %s\n", "layer", "self_ms", "definition")
	for _, l := range layerSelves {
		xs, ok := selves[l.layer]
		if !ok {
			continue
		}
		m := median(xs)
		sum += m
		def := l.span
		for _, m := range l.minus {
			def += " - " + m
		}
		for _, p := range l.plus {
			def += " + " + p
		}
		fmt.Fprintf(w, "  %-14s %10.3f  %s\n", l.layer, m, def)
	}
	if len(selves) == 0 {
		fmt.Fprintf(w, "  (no replay below the store on this workload)\n")
	}
	o.layer["bench.self_sum_ms"] = sum
	o.layer["bench.self_sum_frac"] = ratio(sum, untracedP50)
	fmt.Fprintf(w, "  %-14s %10.3f  sum of the above; untraced latency_p50_ms %.3f (ratio %.3f)\n",
		"total", sum, untracedP50, ratio(sum, untracedP50))
	fmt.Fprintf(w, "ratios (numerator / base)\n")
	for _, r := range ratios {
		fmt.Fprintf(w, "  %-28s %10.4f  = %.0f %s / %.0f %s\n", r.name, ratio(r.num, r.den), r.num, r.numWhat, r.den, r.denWhat)
	}
	fmt.Fprintf(w, "per-layer metrics\n")
	names := make([]string, 0, len(perLayer))
	for _, d := range perLayer {
		names = append(names, fmt.Sprintf("  %-30s %14.4f %s", d.name, o.layer[d.name], d.unit))
	}
	fmt.Fprintln(w, strings.Join(names, "\n"))
}

// ratioRow is one ratio with its base, as printed in the summary.
type ratioRow struct {
	name             string
	num, den         float64
	numWhat, denWhat string
}
