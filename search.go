package alae

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/bwt"
	"repro/internal/core"
	"repro/internal/strie"
)

// This file holds the production conveniences around the core Search:
// index persistence (build once, reload instantly — the first step of
// the paper's external-memory future work), both-strand DNA search,
// and parallel multi-query search.

// Save serialises the index (text plus compressed suffix array) so a
// later process can Load it instead of rebuilding. The format is
// versioned and validated on load.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(ix.text))); err != nil {
		return err
	}
	if _, err := bw.Write(ix.text); err != nil {
		return err
	}
	if _, err := ix.trie.Index().WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads an index written by Save.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var n uint64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("alae: reading index: %w", err)
	}
	if n > 1<<40 {
		return nil, fmt.Errorf("alae: implausible text length %d", n)
	}
	text, err := bwt.ReadExact(br, n)
	if err != nil {
		return nil, fmt.Errorf("alae: reading text: %w", err)
	}
	fm, err := bwt.ReadFMIndex(br)
	if err != nil {
		return nil, err
	}
	if fm.Len() != len(text) {
		return nil, fmt.Errorf("alae: index length %d does not match text length %d", fm.Len(), len(text))
	}
	return &Index{
		text: text,
		trie: strie.NewFromIndex(text, fm),
		alae: make(map[engineKey]*core.Engine),
	}, nil
}

// complementTable maps each DNA base to its complement — upper AND
// lower case, plus the IUPAC ambiguity codes — and every other byte to
// itself. Built once so ReverseComplement is a table walk rather than
// a per-byte switch.
//
// The original table only complemented uppercase ACGT, so soft-masked
// (lowercase) or ambiguity-coded FASTA input passed through unchanged
// and SearchBothStrands silently searched a *reversed but
// uncomplemented* strand — wrong answers, no diagnostic.
var complementTable = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = byte(i)
	}
	// Watson–Crick pairs and the paired IUPAC ambiguity codes:
	// R(AG)↔Y(CT), K(GT)↔M(AC), B(CGT)↔V(ACG), D(AGT)↔H(ACT).
	// S(CG), W(AT) and N are their own complements and stay identity.
	for _, p := range [...][2]byte{
		{'A', 'T'}, {'C', 'G'},
		{'R', 'Y'}, {'K', 'M'}, {'B', 'V'}, {'D', 'H'},
	} {
		a, b := p[0], p[1]
		t[a], t[b] = b, a
		t[a|0x20], t[b|0x20] = b|0x20, a|0x20 // lowercase, case-preserving
	}
	return t
}()

// ReverseComplement returns the reverse complement of a DNA sequence.
// Lowercase (soft-masked) bases complement case-preservingly, and the
// IUPAC ambiguity codes map to their complements (R↔Y, K↔M, B↔V, D↔H;
// S, W and N are self-complementary). Bytes outside the DNA alphabet
// (e.g. collection separators) are preserved in place so coordinates
// stay meaningful. Note that Index matching is byte-exact: soft-masked
// input should be case-normalised to the index's case before
// searching, and N never matches an ACGT text (it can still sit inside
// a hit as a mismatch).
func ReverseComplement(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[len(s)-1-i] = complementTable[c]
	}
	return out
}

// Strand labels a hit's query orientation.
type Strand int

const (
	// Forward means the query aligned as given.
	Forward Strand = iota
	// Reverse means the reverse complement of the query aligned.
	Reverse
)

// StrandHit is a hit annotated with its strand. For Reverse hits, QEnd
// is a position in the reverse-complemented query.
type StrandHit struct {
	Hit
	Strand Strand
}

// SearchBothStrands runs the query and its reverse complement — how
// nucleotide searches are actually performed, since a homologous
// region can sit on either strand of the genome.
func (ix *Index) SearchBothStrands(query []byte, opts SearchOptions) ([]StrandHit, error) {
	fwd, err := ix.Search(query, opts)
	if err != nil {
		return nil, err
	}
	rev, err := ix.Search(ReverseComplement(query), opts)
	if err != nil {
		return nil, err
	}
	out := make([]StrandHit, 0, len(fwd.Hits)+len(rev.Hits))
	for _, h := range fwd.Hits {
		out = append(out, StrandHit{Hit: h, Strand: Forward})
	}
	for _, h := range rev.Hits {
		out = append(out, StrandHit{Hit: h, Strand: Reverse})
	}
	return out, nil
}

// searchAllStarted, when non-nil, observes each query index a
// SearchAll worker picks up. Test hook for the cancellation contract;
// never set in production code.
var searchAllStarted func(qi int)

// SearchAll runs many queries concurrently over the shared index with
// the given parallelism (0 means one worker per query up to 8).
// Results are returned in query order; the first error cancels the
// remaining work — queries not yet started are never launched (their
// result slots stay nil) and exactly the first error in query order is
// returned, wrapped with its query index.
//
// First-error determinism: workers claim query indexes from an atomic
// cursor in ascending order, so when any query fails, every
// lower-indexed query has already been claimed and runs to completion
// on its worker. Each failure CAS-min's its index into a shared slot;
// after the pool drains, that slot therefore holds the globally lowest
// failing index among the queries that ran — the same error every
// time, however the workers interleave. (The previous implementation
// raced two same-window failures on a boolean flag and could both
// report the later error and, on a configuration error, drop the
// error entirely while returning nil result slots.)
//
// Warm-up contract: before any worker starts, SearchAll builds the
// shared lazy structures once — the engine for the requested
// configuration and (for the ALAE engines) the domination index of the
// scheme's q — so workers never race to build them redundantly; from
// then on those structures are read-only and shared. Each worker then
// holds ONE Session for its whole run: per-query state (q-gram
// inverted index, δ score table, bound tables, collector, traversal
// workspace) is re-armed in place between queries instead of rebuilt,
// and the engine's cross-query gram cache is shared read-mostly across
// the workers, so repeated or overlapping queries resolve their hot
// grams by hash probe.
func (ix *Index) SearchAll(queries [][]byte, opts SearchOptions, workers int) ([]*Result, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	// Warm the shared lazy structures (domination index, engine
	// caches) once so workers don't race to build them redundantly.
	s := opts.Scheme
	if s == (Scheme{}) {
		s = DefaultDNAScheme
	}
	if opts.Algorithm == ALAE || opts.Algorithm == ALAEHybrid {
		if _, err := ix.DominationIndexSize(s); err != nil {
			return nil, err
		}
	}
	results, qi, err := runQueries(len(queries), workers, func() (func(int) (*Result, error), func(), error) {
		ses, err := ix.OpenSession(opts)
		if err != nil {
			return nil, nil, err
		}
		search := func(qi int) (*Result, error) {
			if searchAllStarted != nil {
				searchAllStarted(qi)
			}
			return ses.Search(queries[qi])
		}
		return search, ses.Close, nil
	})
	if err != nil && qi < len(queries) {
		return nil, fmt.Errorf("alae: query %d: %w", qi, err)
	}
	return results, err
}

// runQueries is the worker pool behind Index.SearchAll and
// Store.SearchAllContext: workers goroutines (0 means one per query up
// to 8) claim query indexes from an atomic cursor in ascending order.
// open is called once per worker and returns that worker's search
// function and its release. The first failure stops unstarted queries
// from launching; on failure, results is nil and err is the error of
// the lowest failing query index qi, or — qi = n — a configuration
// error from open, which no query owns.
func runQueries[R any](n, workers int, open func() (search func(qi int) (R, error), release func(), err error)) (results []R, qi int, err error) {
	if workers <= 0 {
		workers = 8
	}
	workers = min(workers, n)
	results = make([]R, n)
	errs := make([]error, n)
	var (
		wg       sync.WaitGroup
		cursor   atomic.Int64
		failedAt atomic.Int64 // lowest failing query index; n = none
		openOnce sync.Once
		openErr  error // configuration error, when no query owns one
	)
	failedAt.Store(int64(n))
	// markFailed CAS-min's qi into failedAt. errs[qi] must be written
	// before the call; wg.Wait() publishes both to the final read.
	markFailed := func(qi int) {
		for {
			cur := failedAt.Load()
			if int64(qi) >= cur || failedAt.CompareAndSwap(cur, int64(qi)) {
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			search, release, err := open()
			if err != nil {
				// Configuration errors apply to every query, not any
				// particular one: keep the error in its own slot (so it
				// is never misreported as "query N") and claim the next
				// index only to stop later queries from launching. A
				// genuine per-query failure at a lower index still wins
				// the CAS-min and is reported instead.
				openOnce.Do(func() { openErr = err })
				qi := int(cursor.Add(1)) - 1
				markFailed(min(qi, n-1))
				return
			}
			defer release()
			for failedAt.Load() == int64(n) {
				qi := int(cursor.Add(1)) - 1
				if qi >= n {
					return
				}
				if results[qi], errs[qi] = search(qi); errs[qi] != nil {
					markFailed(qi)
					return
				}
			}
		}()
	}
	wg.Wait()
	if fa := int(failedAt.Load()); fa < n {
		if errs[fa] != nil {
			return nil, fa, errs[fa]
		}
		// The failure mark came from a configuration error.
		return nil, n, openErr
	}
	return results, n, nil
}
