package core

import "repro/internal/align"

// The fork-family dispatcher. A fork family — one distinct q-gram of
// the query with its pre-resolved trie node and column set (see
// resolve.go) — is the engine's natural unit of independent work:
// families never share traversal state, only the read-only index
// structures (trie, domination index, query, δ table), and their
// outputs combine through the collector's commutative max-merge and
// additive statistics. So every family runs exactly once on exactly
// one lane, and hits and CalculatedEntries are byte-identical at every
// lane count. Families vary wildly in cost (a family over a frequent
// gram walks a much larger subtree), so lanes pull the next family
// from one atomic cursor over the sorted family list instead of owning
// static slices: an idle lane immediately steals the next family.
//
// The lanes (context, statistics, workspace, collector shard) and the
// cursor belong to the session and are re-armed per query. Lane 0 runs
// on the caller; every other lane is handed to a process-wide helper
// goroutine. Helpers are reused across searches and sessions: a
// finished helper parks on its own work channel, and the dispatcher
// hands a lane to a parked helper if there is one or starts a new
// helper otherwise, so the pool grows to the peak concurrent lane
// demand and a warm parallel search starts no goroutine.
//
// Hit recording is sharded: each lane owns one open-addressing table
// of the session's ShardedCollector, so no Add ever contends, and the
// shards merge into the caller's collector by table scan afterwards.

// lane is one dispatch lane of a Session: a search context with its
// own statistics, collector and workspace, draining the session's
// family cursor.
type lane struct {
	ses *Session
	ctx searchCtx
	st  Stats
	ws  *workspace
}

// drain processes families off the session's cursor until the list is
// exhausted or the search is cancelled (cancel.go; the caller reports
// the error, and the partial statistics still merge).
func (l *lane) drain() {
	fams := l.ses.fams
	for !l.ctx.stopped {
		i := int(l.ses.cursor.Add(1)) - 1
		if i >= len(fams) {
			return
		}
		l.ctx.processGram(&fams[i])
	}
}

// maxIdleHelpers bounds the parked helper pool. It sits far above any
// realistic concurrent lane demand (concurrent searches × lanes, with
// lanes defaulting to the CPU count), so it never caps a workload; it
// only keeps a pathological burst from parking goroutines without
// limit. A helper finishing while the pool is full exits instead of
// parking. Parked helpers live for the process, blocked on their work
// channel.
const maxIdleHelpers = 1024

// idleHelpers holds the work channels of parked helpers. A helper
// parks BEFORE it signals its lane done, so by the time a search's
// WaitGroup releases the caller every helper of that search is
// available to the next one.
var idleHelpers = make(chan chan *lane, maxIdleHelpers)

// handOff runs l on a parked helper, or on a new one when none is idle.
func handOff(l *lane) {
	select {
	case work := <-idleHelpers:
		work <- l // buffered: the helper parked with an empty channel
	default:
		go helper(make(chan *lane, 1), l)
	}
}

// helper drains the lanes it is handed, parking on work in between.
func helper(work chan *lane, l *lane) {
	for {
		l.drain()
		wg := &l.ses.wg // l belongs to its session again after Done
		select {
		case idleHelpers <- work:
			wg.Done()
		default:
			wg.Done()
			return
		}
		l = <-work
	}
}

// dispatch runs the session's resolved fork families (ses.fams) on up
// to n lanes and merges their hits into c and their statistics into
// st. base carries the search-shared context fields; each lane copies
// it and fills in its own collector, stats and workspace. st must
// already carry Threshold/Q/Lmax (plus the resolution-time fork
// accounting). A single lane records straight into c and st, so a warm
// sequential search allocates nothing.
func (ses *Session) dispatch(base searchCtx, n int, c *align.Collector, st *Stats) {
	n = min(n, len(ses.fams))
	if len(ses.lanes) < n {
		ses.lanes = append(ses.lanes, make([]lane, n-len(ses.lanes))...)
	}
	lanes := ses.lanes[:n]
	if n > 1 {
		if ses.shards == nil {
			ses.shards = align.NewSharded(n)
		} else {
			ses.shards.Resize(n)
		}
		ses.shards.ResetAll()
	}
	for w := range lanes {
		l := &lanes[w]
		if l.ws == nil {
			l.ws = &workspace{}
		}
		l.ses, l.ctx = ses, base
		l.ctx.ws = l.ws
		if n == 1 {
			l.ctx.c, l.ctx.st = c, st
		} else {
			// Lane stats start from the search-level constants so the
			// final Stats.Add merge preserves them.
			l.st = Stats{Threshold: st.Threshold, Q: st.Q, Lmax: st.Lmax}
			l.ctx.c, l.ctx.st = ses.shards.Shard(w), &l.st
		}
	}
	ses.cursor.Store(0)
	ses.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		handOff(&lanes[w])
	}
	lanes[0].drain()
	ses.wg.Wait()
	for w := range lanes {
		l := &lanes[w]
		if n > 1 {
			st.Add(l.st)
		}
		l.ws.scrub()
		// A pooled idle session must not pin the caller's collector or
		// query.
		l.ctx = searchCtx{}
	}
	if n > 1 {
		ses.shards.MergeInto(c, n)
	}
}
