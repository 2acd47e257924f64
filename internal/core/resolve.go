package core

import (
	"repro/internal/qgram"
	"repro/internal/strie"
)

// Prefix-shared gram resolution. The naive family pipeline re-walks
// every distinct q-gram from the trie root — q backward-search steps
// per gram — even though sorted grams share long prefixes. Resolution
// instead keeps a stack of trie nodes for the prefixes of the most
// recently walked gram and only runs backward-search steps for each
// gram's non-shared suffix, the §5 shared-structure principle applied
// to the grams themselves. Absent grams (Theorem 3's cheapest prune)
// die here, before the scheduler ever sees them, and a prefix known to
// be absent kills every later gram that still shares it without a
// single further index probe.
//
// On top of the walk sits the engine's cross-query gram cache (see
// gramcache.go): a gram whose packed key is cached skips the walk
// entirely, and a miss publishes its resolution for every later query
// over the same index. The walk state (node stack, last walked gram,
// failed-prefix mark) only ever advances on misses, so the two layers
// compose: hot grams are hash probes, cold runs of sorted grams still
// share their prefixes.

// gramFamily is one unit of schedulable work: a distinct q-gram of the
// query, its pre-resolved trie node, and the 0-based query positions
// where it occurs. entry points at the gram's cross-query cache entry
// when one exists (it carries the hot-gram occurrence memo).
type gramFamily struct {
	node  strie.Node
	gram  []byte
	cols  []int32
	entry *gramEntry
}

// resolveFamilies resolves every distinct gram of qidx against the trie
// — through the cross-query cache where possible, by one incremental
// prefix-shared pass otherwise — and returns the present families in
// lexicographic gram order. ForksConsidered/ForksAbsent accounting for
// the pruned grams lands in st (identically on cache hits and misses);
// the per-family domination filter still runs at processing time.
func (ses *Session) resolveFamilies(qidx *qgram.Index, st *Stats) []gramFamily {
	e := ses.e
	q := qidx.Q()
	prevFams := len(ses.fams)
	fams := ses.fams[:0]
	gramBuf := ses.gramBuf[:0] // one backing array for every family's gram
	if cap(ses.resNodes) < q {
		ses.resNodes = make([]strie.Node, q)
	}
	nodes := ses.resNodes[:q] // nodes[d] spells the walked gram's prefix of length d+1
	prev := ses.prevGram[:0]  // the most recently walked gram
	depth := 0                // resolved prefix length of the walked gram
	failedAt := -1            // shortest absent prefix length of the walked gram, or -1
	root := e.trie.Root()

	var gc *gramCache
	packer := qidx.Packer()
	if packer != nil {
		// The cache pointer is immutable once built; memoising it on
		// the session keeps the engine mutex off the per-query path.
		if !ses.gcValid || ses.gcQ != q {
			ses.gc, ses.gcQ, ses.gcValid = e.gramCacheFor(q), q, true
		}
		gc = ses.gc
	}
	addFamily := func(gram []byte, node strie.Node, cols []int32, entry *gramEntry) {
		gramBuf = append(gramBuf, gram...)
		fams = append(fams, gramFamily{
			node:  node,
			gram:  gramBuf[len(gramBuf)-q:],
			cols:  cols,
			entry: entry,
		})
	}
	resolve := func(gram []byte, key uint64, cols []int32) {
		st.ForksConsidered += int64(len(cols))
		var entry *gramEntry
		if gc != nil {
			var owner bool
			entry, owner = gc.acquire(key)
			if !owner {
				st.GramCacheHits++
				if !entry.present {
					st.ForksAbsent += int64(len(cols))
					return
				}
				addFamily(gram, entry.node, cols, entry)
				return
			}
			st.GramCacheMisses++
		}
		// Walk path (cache miss or cache disabled). The shared prefix
		// with the last walked gram is computed directly: sorted order
		// guarantees LCP(walked, current) = min over the skipped grams,
		// so cache hits in between never overstate the sharing.
		lcp := 0
		for lcp < len(prev) && prev[lcp] == gram[lcp] {
			lcp++
		}
		prev = append(prev[:0], gram...)
		if failedAt >= 0 && failedAt <= lcp {
			// The shared prefix already failed: this gram is absent too.
			st.ForksAbsent += int64(len(cols))
			if entry != nil {
				gc.publish(entry, strie.Node{}, false)
			}
			return
		}
		failedAt = -1
		if depth > lcp {
			depth = lcp
		}
		u := root
		if depth > 0 {
			u = nodes[depth-1]
		}
		for d := depth; d < q; d++ {
			v, ok := e.trie.Child(u, gram[d])
			if !ok {
				depth = d
				failedAt = d + 1
				st.ForksAbsent += int64(len(cols))
				if entry != nil {
					gc.publish(entry, strie.Node{}, false)
				}
				return
			}
			nodes[d] = v
			u = v
		}
		depth = q
		if entry != nil {
			gc.publish(entry, u, true)
		}
		addFamily(gram, u, cols, entry)
	}
	if packer != nil {
		// The packed iteration hands over each gram's key for free —
		// no re-packing on the cache probe path.
		qidx.GramsSortedKeys(resolve)
	} else {
		qidx.GramsSorted(func(gram []byte, cols []int32) { resolve(gram, 0, cols) })
	}
	ses.fams, ses.gramBuf, ses.prevGram = fams, gramBuf, prev
	if n := len(fams); n < prevFams && prevFams <= cap(fams) {
		// Clear the shrunk list's stale tail so an idle session does
		// not pin the previous query's position lists or cache entries.
		clear(fams[n:prevFams])
	}
	return fams
}
