package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	alae "repro"
)

// This file is the benchmark's correctness check. Every answer the
// system under test gives is reduced to a (count, digest) of its hits
// in member coordinates and compared, after the timed region, with
// per-member alae.Index.Search on the sequential engine at the
// threshold the answer reports: a path with no store, gather, lanes,
// query cache or HTTP. A sample of queries is also checked against
// gotohHits, a naive affine-gap sweep that shares no code with the
// program.

// member is one member sequence of a store.
type member struct {
	name string
	seq  []byte
}

// refIndexes builds and caches one alae.Index per member, lazily and
// safely from several checking goroutines.
type refIndexes struct {
	mu  sync.Mutex
	ixs map[string]*refEntry
}

type refEntry struct {
	once sync.Once
	ix   *alae.Index
}

func newRefIndexes() *refIndexes { return &refIndexes{ixs: map[string]*refEntry{}} }

func (r *refIndexes) get(m member) *alae.Index {
	r.mu.Lock()
	e := r.ixs[m.name]
	if e == nil {
		e = &refEntry{}
		r.ixs[m.name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.ix = alae.NewIndex(m.seq) })
	return e.ix
}

// refResult is the reference answer for one query over a member set;
// hits is kept only when asked for (to pick a top K).
type refResult struct {
	d                digest
	hits             []hitKey
	entries, emitted int64
}

func referenceSearch(refs *refIndexes, members []member, q []byte, h int, s alae.Scheme, keep bool) (refResult, error) {
	var out refResult
	for _, m := range members {
		if len(m.seq) == 0 {
			continue
		}
		res, err := refs.get(m).Search(q, alae.SearchOptions{Scheme: s, Threshold: h, Parallelism: 1})
		if err != nil {
			return out, fmt.Errorf("reference search in %s: %w", m.name, err)
		}
		for _, hh := range res.Hits {
			out.d.add(m.name, hh.TEnd, hh.QEnd, hh.Score)
			if keep {
				out.hits = append(out.hits, hitKey{member: m.name, tEnd: hh.TEnd, qEnd: hh.QEnd, score: hh.Score})
			}
		}
		out.entries += res.Stats.CalculatedEntries
		out.emitted += res.Stats.EmittedHits
	}
	return out, nil
}

// gotohHits is a deliberately naive local alignment with affine gaps
// (Gotoh's three-state recurrence, one row per state): it returns
// every (tEnd, qEnd) whose best local score ending there is at least
// h. A gap of length k scores GapOpen + k·GapExtend.
//
//	M(i,j) = H(i-1,j-1) + δ(t_i, q_j)
//	X(i,j) = max(H(i-1,j) + open, X(i-1,j) + ext)   text letter against a gap
//	Y(i,j) = max(H(i,j-1) + open, Y(i,j-1) + ext)   query letter against a gap
//	H(i,j) = max(0, M, X, Y)
func gotohHits(name string, text, query []byte, s alae.Scheme, h int) []hitKey {
	m := len(query)
	const negInf = -1 << 40
	open, ext := s.GapOpen+s.GapExtend, s.GapExtend
	hPrev := make([]int, m+1) // H(i-1, ·)
	hCur := make([]int, m+1)  // H(i, ·)
	xRow := make([]int, m+1)  // X(i-1, ·), updated in place to X(i, ·)
	for j := range xRow {
		xRow[j] = negInf
	}
	var out []hitKey
	for i := 1; i <= len(text); i++ {
		t := text[i-1]
		y := negInf
		hCur[0] = 0
		for j := 1; j <= m; j++ {
			d := s.Mismatch
			if t == query[j-1] {
				d = s.Match
			}
			mv := hPrev[j-1] + d
			xv := max(hPrev[j]+open, xRow[j]+ext)
			xRow[j] = xv
			y = max(hCur[j-1]+open, y+ext)
			hv := max(0, mv, xv, y)
			hCur[j] = hv
			if hv >= h {
				out = append(out, hitKey{member: name, tEnd: i - 1, qEnd: j - 1, score: hv})
			}
		}
		hPrev, hCur = hCur, hPrev
	}
	return out
}

// answer is one reply of the system under test, reduced for checking:
// the full hit set's digest, or, for an HTTP response that may be
// truncated, its total_hits and the digest of the hits it returned
// (topK > 0 is the response's hit limit).
type answer struct {
	h     int // the threshold the answer reports
	d     digest
	total int
	topK  int
	bad   bool // set by verify
}

// checkTask is one distinct query to verify, with every answer the
// system gave for it.
type checkTask struct {
	label   string
	query   []byte
	h       int
	members []member       // the live members the answers were computed over
	starts  map[string]int // member global starts, for the top-K tiebreak
	answers []answer
	gotoh   bool // also run the naive sweep

	// Filled by verify.
	ref   refResult
	fails int
	err   error
}

// verify checks every answer of t against the reference and, when
// sampled, the reference against the naive sweep. It returns the
// number of wrong answers and the first problem found.
func (t *checkTask) verify(refs *refIndexes, s alae.Scheme) (int, error) {
	fail := func(err error) (int, error) {
		for k := range t.answers {
			t.answers[k].bad = true
		}
		return len(t.answers), err
	}
	keep := false
	for _, a := range t.answers {
		keep = keep || a.topK > 0
	}
	ref, err := referenceSearch(refs, t.members, t.query, t.h, s, keep)
	if err != nil {
		return fail(err)
	}
	t.ref = refResult{d: ref.d, entries: ref.entries, emitted: ref.emitted}
	if t.gotoh {
		var naive []hitKey
		for _, m := range t.members {
			naive = append(naive, gotohHits(m.name, m.seq, t.query, s, t.h)...)
		}
		if d := digestKeys(naive); d != ref.d {
			return fail(fmt.Errorf("%s: reference has %d hits, naive Gotoh %d (digests %x / %x)", t.label, ref.d.n, d.n, ref.d.sum, d.sum))
		}
	}
	fails := 0
	var first error
	for k := range t.answers {
		a := &t.answers[k]
		var err error
		switch {
		case a.h != t.h:
			err = fmt.Errorf("%s: threshold %d, another answer reported %d", t.label, a.h, t.h)
		case a.topK > 0 && a.total != ref.d.n:
			err = fmt.Errorf("%s: total_hits %d, reference %d", t.label, a.total, ref.d.n)
		case a.topK > 0:
			want := ref.hits
			if len(want) > a.topK {
				want = topK(want, a.topK, t.starts)
			}
			if d := digestKeys(want); d != a.d {
				err = fmt.Errorf("%s: the %d returned hits differ from the reference's top %d", t.label, a.d.n, d.n)
			}
		case a.d != ref.d:
			err = fmt.Errorf("%s: %d hits (digest %x), reference %d (digest %x)", t.label, a.d.n, a.d.sum, ref.d.n, ref.d.sum)
		}
		if err != nil {
			a.bad = true
			fails++
			if first == nil {
				first = err
			}
		}
	}
	return fails, first
}

// topK keeps the k best hits: score descending, then global tEnd,
// then qEnd ascending (the serving layer's documented tiebreak).
func topK(hits []hitKey, k int, starts map[string]int) []hitKey {
	out := append([]hitKey(nil), hits...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if ga, gb := starts[a.member]+a.tEnd, starts[b.member]+b.tEnd; ga != gb {
			return ga < gb
		}
		return a.qEnd < b.qEnd
	})
	return out[:k]
}

// runChecks verifies every task on NumCPU goroutines and returns the
// number of wrong answers; each failing task is reported on stderr.
func runChecks(tasks []*checkTask, refs *refIndexes, s alae.Scheme) int64 {
	var wg sync.WaitGroup
	next := make(chan *checkTask, len(tasks)) // holds every task: workers never block the feeder
	for _, t := range tasks {
		next <- t
	}
	close(next)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				t.fails, t.err = t.verify(refs, s)
			}
		}()
	}
	wg.Wait()
	var failed int64
	for _, t := range tasks {
		failed += int64(t.fails)
		if t.err != nil {
			logf("check failed: %v", t.err)
		}
	}
	return failed
}

// gotohCells is the naive sweep's budget in DP cells per run: a few
// seconds of the three-row sweep on one core.
const gotohCells = 4e8

// sampleGotoh marks tasks for the naive sweep, in order, until their
// summed DP cells would pass budget; the first task is always marked.
func sampleGotoh(tasks []*checkTask, budget float64) int {
	var cells float64
	marked := 0
	for _, t := range tasks {
		c := 0.0
		for _, m := range t.members {
			c += float64(len(m.seq)) * float64(len(t.query))
		}
		if marked > 0 && cells+c > budget {
			break
		}
		t.gotoh = true
		cells += c
		marked++
	}
	return marked
}

// storeAnswer reduces a store result to a checkable answer.
func storeAnswer(res *alae.StoreResult) answer {
	a := answer{h: res.Threshold}
	for _, hh := range res.Hits {
		a.d.add(hh.Name, hh.LocalTEnd, hh.QEnd, hh.Score)
	}
	return a
}

// ledger files the answers of a run by query, creating each query's
// check task on first use.
type ledger struct {
	tasks   []*checkTask
	newTask func(qi int) *checkTask
}

func newLedger(queries int, newTask func(qi int) *checkTask) *ledger {
	return &ledger{tasks: make([]*checkTask, queries), newTask: newTask}
}

// answerRef locates one filed answer.
type answerRef struct {
	t *checkTask
	k int
}

func (r answerRef) bad() bool { return r.t.answers[r.k].bad }

// add files a for query qi; the first answer fixes the task's threshold.
func (l *ledger) add(qi int, a answer) answerRef {
	t := l.tasks[qi]
	if t == nil {
		t = l.newTask(qi)
		t.h = a.h
		l.tasks[qi] = t
	}
	t.answers = append(t.answers, a)
	return answerRef{t, len(t.answers) - 1}
}

// addNew files a as the first answer of a new task t, for runs whose
// queries are made on the fly; it returns the task's query index.
func (l *ledger) addNew(t *checkTask, a answer) (int, answerRef) {
	t.h = a.h
	t.answers = append(t.answers, a)
	l.tasks = append(l.tasks, t)
	return len(l.tasks) - 1, answerRef{t, 0}
}

// check verifies every filed answer (see runChecks), first marking a
// sample for the naive sweep; it records its facts in o.
func (l *ledger) check(o *outcome) int64 {
	var tasks []*checkTask
	for _, t := range l.tasks {
		if t != nil {
			tasks = append(tasks, t)
		}
	}
	o.notes["gotoh_checked"] = sampleGotoh(tasks, gotohCells)
	start := time.Now()
	wrong := runChecks(tasks, newRefIndexes(), alae.DefaultDNAScheme)
	o.notes["check_s"] = time.Since(start).Seconds()
	o.failed += wrong
	return wrong
}
