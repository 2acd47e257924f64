package core

import (
	"repro/internal/strie"
)

// The DFS engine computes, per q-gram fork family, the single matrix
// M_X of §2.2 restricted to its meaningful regions: the NGR diagonals
// are advanced per fork (they are disjoint by construction and use the
// one-source recurrence of Equation 3, cost 1), while all gap regions
// of the matrix live in ONE merged sparse band per trie path — fork
// regions overlap in M_X, and a matrix entry is a matrix entry no
// matter how many fork areas contain it, so merging computes each at
// most once. Every FGOE seeds the band with its cell value; the
// horizontal extension run of §3.1.3 then falls out of the band's own
// Gb carry. This achieves within the DFS what §4's reuse achieves for
// the column-wise hybrid engine: duplicated entries are not
// recalculated.
//
// The traversal is flat: recursion is an explicit stack of walkFrames,
// live diagonals are a stack of 8-byte ngrForks in one slice, and the
// merged band rows of every depth share one structure-of-arrays slab
// (js/m/ga backing arrays with per-frame offsets). Pushing a child
// appends to the slab tops; popping truncates. Nothing in the per-gram
// path allocates once the workspace is warm. Child enumeration — the
// ExtendAll at the root and at every fork expansion — rides the rank
// core's fused two-row scan: both boundary rows of a node's range are
// answered from one checkpoint-block visit whenever they are close,
// so an expanded node pays ~one scan instead of two.

// seedCell is an FGOE entering the merged band at the current row.
type seedCell struct {
	j int32 // 1-based query column
	v int32 // FGOE score
}

// ngrFork is a live no-gap diagonal in the flat walk: the 0-based query
// position of its q-prefix match and its current diagonal score. (The
// full fork struct is only needed before the row-q merge; during the
// walk a fork is either this diagonal or a cell in the merged band.)
type ngrFork struct {
	col0  int32
	score int32
}

// bandTriple is a structure-of-arrays run of band cells: parallel
// sorted columns, best scores M and vertical-gap scores Ga. As the
// workspace slab it holds every live depth's row back to back; rows are
// addressed by (start, length) pairs held in walkFrames.
type bandTriple struct {
	js, m, ga []int32
}

func (b *bandTriple) len() int { return len(b.js) }

func (b *bandTriple) reset() { b.truncate(0) }

func (b *bandTriple) truncate(n int) {
	b.js, b.m, b.ga = b.js[:n], b.m[:n], b.ga[:n]
}

func (b *bandTriple) push(j, m, ga int32) {
	b.js = append(b.js, j)
	b.m = append(b.m, m)
	b.ga = append(b.ga, ga)
}

// row returns the cell run [start, start+n) as slice views. The views
// stay readable even if later pushes grow the slab.
func (b *bandTriple) row(start, n int) (js, m, ga []int32) {
	return b.js[start : start+n], b.m[start : start+n], b.ga[start : start+n]
}

// walkFrame is one level of the explicit DFS stack: the expanded
// node's depth, its child ranges (los/his double as the rank buffers
// backward search fills), read-only views of the frame's live
// diagonals and merged band row, the truncation water marks in the
// workspace slabs, and the emit state of the frame's node. The views
// are captured once at push time; they stay readable even if deeper
// pushes grow the slab backings, because growth copies and the
// frame's cells are never overwritten while it lives. Frame buffers
// are allocated once per stack depth and reused across pushes.
type walkFrame struct {
	depth    int
	childIdx int
	los, his []int32
	em       emitCtx

	diags        []ngrFork // this frame's live diagonals
	pJs, pM, pGa []int32   // this frame's merged band row
	forkStart    int       // ws.diags truncation mark
	bandStart    int       // ws.slab truncation mark
}

// frame returns a pointer to stack level i, growing the frame slice if
// needed. Callers must re-acquire frame pointers after calling frame
// with a larger i (growth moves the backing array).
func (ws *workspace) frame(ctx *searchCtx, i int) *walkFrame {
	for len(ws.frames) <= i {
		sigma := ctx.e.trie.Index().Sigma()
		ws.frames = append(ws.frames, walkFrame{
			los: make([]int32, sigma),
			his: make([]int32, sigma),
		})
	}
	return &ws.frames[i]
}

// dfsGram builds this fork family's row-q state — per-fork NGR
// diagonals plus the merged band holding any pre-q FGOE regions — and
// walks the subtree. survivors are ascending 0-based query positions.
func (ctx *searchCtx) dfsGram(node strie.Node, gram []byte, survivors []int32, occGetter func() []int) {
	ws := ctx.ws
	for len(ws.forks) < len(survivors) {
		ws.forks = append(ws.forks, fork{})
	}
	forks := ws.forks[:len(survivors)]
	for k, col0 := range survivors {
		ctx.newForkInto(&forks[k], col0, gram)
	}
	ws.diags = ws.diags[:0]
	ws.slab.reset()
	ctx.mergeForkBands(forks)
	ctx.dfsEmitRowQ(node, occGetter)
	if len(ws.diags) > 0 || ws.slab.len() > 0 {
		ctx.dfsWalk(node)
	}
}

// dfsEmitRowQ reports row-q hits at the gram node itself: the EMR
// diagonal cell scores q·sa and can already reach the threshold, both
// for forks still on the diagonal and for band cells from forks whose
// FGOE fell inside the EMR. Cells stage into the workspace's row-q
// RunStage (diagonals of adjacent surviving forks and merged-band runs
// are column-contiguous) and flush through the batched path once.
func (ctx *searchCtx) dfsEmitRowQ(node strie.Node, occGetter func() []int) {
	q := node.Depth
	st := &ctx.ws.rowQ
	stage := func(j int32, score int32) {
		if !st.Stage(int32(q), j, score) {
			ctx.flushRowQ(occGetter)
			st.Stage(int32(q), j, score)
		}
	}
	for _, d := range ctx.ws.diags {
		if int(d.score) >= ctx.h {
			stage(d.col0+int32(q), d.score)
		}
	}
	slab := &ctx.ws.slab
	for k, mv := range slab.m {
		if mv > negInf && int(mv) >= ctx.h {
			stage(slab.js[k], mv)
		}
	}
	ctx.flushRowQ(occGetter)
}

// flushRowQ drains the row-q stage: each run fans out over the gram
// node's occurrences through the batched AddRun.
func (ctx *searchCtx) flushRowQ(occGetter func() []int) {
	st := &ctx.ws.rowQ
	if st.Empty() {
		return
	}
	cells := st.Cells()
	for _, r := range st.Runs() {
		run := cells[r.Off : r.Off+r.N]
		for _, t := range occGetter() {
			ctx.forwardRun(t+int(r.Row)-1, int(r.J0)-1, run)
		}
	}
	st.Reset()
}

// mergeRun is one fork's sorted cell run during the row-q band merge:
// the fork plus the index of its current live cell.
type mergeRun struct {
	f   *fork
	pos int32
}

// key is the run's current 1-based query column.
func (r *mergeRun) key() int32 { return r.f.lo + r.pos }

// advance moves the run past its current cell to the next live one,
// skipping dead interior cells; false means the run is exhausted.
func (r *mergeRun) advance() bool {
	r.pos++
	for int(r.pos) < len(r.f.m) && r.f.m[r.pos] <= negInf {
		r.pos++
	}
	return int(r.pos) < len(r.f.m)
}

// siftDownRuns restores the min-heap-by-key property below index i.
func siftDownRuns(runs []mergeRun, i int) {
	for {
		l := 2*i + 1
		if l >= len(runs) {
			return
		}
		s := l
		if r := l + 1; r < len(runs) && runs[r].key() < runs[s].key() {
			s = r
		}
		if runs[i].key() <= runs[s].key() {
			return
		}
		runs[i], runs[s] = runs[s], runs[i]
		i = s
	}
}

// mergeForkBands splits the initial forks into the live-diagonal stack
// (ws.diags) and one merged row-q band (ws.slab row 0), taking the
// maximum on column collisions. Each fork's band cells are already
// sorted by column, so the merge is a min-heap k-way merge over the
// fork runs — O(cells·log k), no per-gram allocation, no comparison
// sort. Dead interior cells (negInf) are skipped, preserving the
// all-cells-alive invariant of the merged band.
func (ctx *searchCtx) mergeForkBands(forks []fork) {
	ws := ctx.ws
	runs := ws.runs[:0]
	for k := range forks {
		f := &forks[k]
		switch f.phase {
		case phaseNGR:
			ws.diags = append(ws.diags, ngrFork{col0: f.col0, score: f.score})
		case phaseGap:
			r := mergeRun{f: f, pos: -1}
			if r.advance() {
				runs = append(runs, r)
			}
		}
	}
	ws.runs = runs // retain capacity across grams
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftDownRuns(runs, i)
	}
	for len(runs) > 0 {
		j := runs[0].key()
		// Fold every run head at column j, keeping max m and max ga.
		mv, gav := negInf, negInf
		for len(runs) > 0 && runs[0].key() == j {
			r := &runs[0]
			if v := r.f.m[r.pos]; v > mv {
				mv = v
			}
			if g := r.f.ga[r.pos]; g > gav {
				gav = g
			}
			if r.advance() {
				siftDownRuns(runs, 0)
			} else {
				runs[0] = runs[len(runs)-1]
				runs = runs[:len(runs)-1]
				siftDownRuns(runs, 0)
			}
		}
		ws.slab.push(j, mv, gav)
	}
}

// dfsWalk expands the subtree under the gram node with an explicit
// stack. For each live trie edge it advances every parent diagonal one
// row (appending survivors to the fork stack, FGOEs to the seed
// scratch), sweeps the merged band into a new slab row, and pushes a
// frame when anything stayed alive. Popping truncates the fork and band
// slabs back to the parent's water marks.
func (ctx *searchCtx) dfsWalk(root strie.Node) {
	ws := ctx.ws
	ctx.st.NodesVisited++
	if root.Depth > ctx.st.MaxDepth {
		ctx.st.MaxDepth = root.Depth
	}
	if root.Depth >= ctx.lmax {
		return
	}
	fr := ws.frame(ctx, 0)
	if root.Hi-root.Lo == 1 {
		ctx.dfsLinear(root, 0, len(ws.diags), 0, ws.slab.len(), &fr.em)
		return
	}
	fm := ctx.e.trie.Index()
	fr.depth = root.Depth
	fr.childIdx = 0
	fr.forkStart, fr.diags = 0, ws.diags
	fr.bandStart = 0
	fr.pJs, fr.pM, fr.pGa = ws.slab.row(0, ws.slab.len())
	fm.ExtendAll(root.Lo, root.Hi, fr.los, fr.his)

	sigma := fm.Sigma()
	mq := int32(len(ctx.query))
	colBound := ctx.colBound
	barrier := ctx.barrier
	seeds := ws.seeds
	var nodesVisited, ngrEntries int64
	top := 0
	for top >= 0 {
		// One iteration advances at most one trie edge: O(m) diagonal
		// steps plus one O(m) band sweep, so a cancellation lands within
		// a bounded number of entries of the signal (cancel.go).
		if ctx.cancelled(ngrEntries) {
			break
		}
		fr := &ws.frames[top]
		if fr.childIdx >= sigma {
			ws.diags = ws.diags[:fr.forkStart]
			ws.slab.truncate(fr.bandStart)
			top--
			continue
		}
		k := fr.childIdx
		fr.childIdx++
		if k == barrier {
			// Hard reset: a barrier-labelled edge is never descended, so
			// no alignment path can span the barrier row (engine.go,
			// Options.BarrierByte).
			continue
		}
		lo, hi := int(fr.los[k]), int(fr.his[k])
		if lo >= hi {
			continue
		}
		i := fr.depth + 1
		if len(ws.frames) <= top+1 {
			ws.frame(ctx, top+1) // grow moves the backing array
			fr = &ws.frames[top]
		}
		cf := &ws.frames[top+1]
		cf.em.reset(ctx, strie.Node{Lo: lo, Hi: hi, Depth: i})
		deltaRow := ctx.deltaRow(k)

		// One NGR step per live parent diagonal (Equation 3).
		cs := len(ws.diags) // the parent's fork range ends here
		seeds = seeds[:0]
		rowB := ctx.rowBound(i)
		for _, d := range fr.diags {
			j := d.col0 + int32(i) // 1-based diagonal column
			if j > mq {
				continue
			}
			ngrEntries++
			sc := d.score + deltaRow[j-1]
			if sc <= 0 || sc < rowB || sc < colBound[j-1] {
				continue
			}
			if int(sc) >= ctx.h {
				cf.em.emit(i, j, sc)
			}
			if int(sc) > ctx.gOpen {
				// The FGOE cell joins the merged band; its horizontal
				// extension run emerges from the band's Gb carry.
				seeds = append(seeds, seedCell{j: j, v: sc})
			} else {
				ws.diags = append(ws.diags, ngrFork{col0: d.col0, score: sc})
			}
		}
		childForkLen := len(ws.diags) - cs

		// One merged-band row per trie edge.
		cbs := ws.slab.len()
		ctx.advanceMergedBand(fr.pJs, fr.pM, fr.pGa, deltaRow, i, seeds, &cf.em, &ws.slab)
		childBandLen := ws.slab.len() - cbs

		if childForkLen == 0 && childBandLen == 0 {
			cf.em.flush()
			ws.diags = ws.diags[:cs]
			ws.slab.truncate(cbs)
			continue
		}
		nodesVisited++
		if i > ctx.st.MaxDepth {
			ctx.st.MaxDepth = i
		}
		if i >= ctx.lmax {
			cf.em.flush()
			ws.diags = ws.diags[:cs]
			ws.slab.truncate(cbs)
			continue
		}
		if hi-lo == 1 {
			// A single-occurrence node's remaining path is one LF step
			// per level (dfsLinear), far cheaper than the two rank
			// passes a child enumeration costs — hand off immediately.
			ws.seeds = seeds
			ctx.dfsLinear(strie.Node{Lo: lo, Hi: hi, Depth: i}, cs, childForkLen, cbs, childBandLen, &cf.em)
			seeds = ws.seeds
			ws.diags = ws.diags[:cs]
			ws.slab.truncate(cbs)
			continue
		}
		// Flush at push: nothing stages into this frame's emit context
		// once its own row is done (descendants use deeper frames), so
		// the runs fan out now, while the node is still the tenant.
		cf.em.flush()
		cf.depth = i
		cf.childIdx = 0
		cf.forkStart, cf.diags = cs, ws.diags[cs:]
		cf.bandStart = cbs
		cf.pJs, cf.pM, cf.pGa = ws.slab.row(cbs, childBandLen)
		fm.ExtendAll(lo, hi, cf.los, cf.his)
		top++
	}
	ws.seeds = seeds
	ctx.st.NodesVisited += nodesVisited
	ctx.st.EntriesNGR += ngrEntries
}

// dfsLinear walks a single-occurrence path without enumerating
// children: the unique next edge letter and child row come from one
// LF step per level (Trie.SingleChild), and the path's text position
// is only resolved — lazily, by the emitCtx — if a cell actually
// reaches the threshold; once resolved, the walk switches to direct
// text reads. Rows ping-pong between the two workspace linear band
// rows so storage stays bounded regardless of path length; diagonals
// are filtered in place within their fork-stack range (the caller
// discards the range afterwards).
//
// NodesVisited counting matches dfsWalk's rule exactly (see Stats): a
// level is counted at walk time only when live state survived the
// advance into it, so a path's dying level is not counted — the same
// as a dfsWalk child whose fork and band advances both come up empty.
// The handoff depth therefore never changes the diagnostic.
func (ctx *searchCtx) dfsLinear(node strie.Node, forkStart, forkLen, bandStart, bandLen int, em *emitCtx) {
	ws := ctx.ws
	text := ctx.e.trie.Text()
	fm := ctx.e.trie.Index()
	em.resetLinearLazy(ctx)
	mq := int32(len(ctx.query))
	colBound := ctx.colBound
	var nodes, ngrEntries int64
	maxDepth := ctx.st.MaxDepth

	// The parent row starts as the node's slab row, then ping-pongs
	// between the two workspace linear rows.
	curJs, curM, curGa := ws.slab.row(bandStart, bandLen)
	outIdx := 0

	live := ws.diags[forkStart : forkStart+forkLen]
	seeds := ws.seeds
	u := node
	for i := node.Depth + 1; i <= ctx.lmax; i++ {
		if ctx.cancelled(ngrEntries) {
			break // a level is one bounded unit, like a dfsWalk edge
		}
		var code int
		if t := em.fixedT; t >= 0 {
			pos := t + i - 1
			if pos >= len(text) {
				break
			}
			code = fm.CodeOf(text[pos])
		} else {
			v, c, ok := ctx.e.trie.SingleChild(u)
			if !ok {
				break
			}
			u, code = v, c
			em.linRow, em.linDep = u.Lo, i
		}
		if code == ctx.barrier {
			break // hard reset: the path may not span the barrier row
		}
		deltaRow := ctx.deltaRow(code)
		seeds = seeds[:0]
		rowB := ctx.rowBound(i)
		n := 0
		for _, d := range live {
			j := d.col0 + int32(i)
			if j > mq {
				continue
			}
			ngrEntries++
			sc := d.score + deltaRow[j-1]
			if sc <= 0 || sc < rowB || sc < colBound[j-1] {
				continue
			}
			if int(sc) >= ctx.h {
				em.emit(i, j, sc)
			}
			if int(sc) > ctx.gOpen {
				seeds = append(seeds, seedCell{j: j, v: sc})
			} else {
				live[n] = ngrFork{col0: d.col0, score: sc}
				n++
			}
		}
		live = live[:n]
		out := &ws.lin[outIdx]
		out.reset()
		ctx.advanceMergedBand(curJs, curM, curGa, deltaRow, i, seeds, em, out)
		curJs, curM, curGa = out.js, out.m, out.ga
		outIdx = 1 - outIdx
		if len(live) == 0 && len(curJs) == 0 {
			break
		}
		nodes++
		if i > maxDepth {
			maxDepth = i
		}
	}
	em.flush() // the walk ends here; staged runs must not outlive it
	ws.seeds = seeds
	ctx.st.NodesVisited += nodes
	ctx.st.EntriesNGR += ngrEntries
	ctx.st.MaxDepth = maxDepth
}

// advanceMergedBand computes the merged band's next row from the
// parent row (pJs/pM/pGa, all cells alive by invariant) and the new
// FGOE seeds, appending to out. The sweep is a single fused pass in
// increasing column order: parent and seed cursors advance linearly, Gb
// chains to j+1, and the next candidate column is derived from the
// cursors — no candidate prepass, no binary search, no allocation.
// Score filtering, boundary/interior entry counting, and threshold
// emission match the recurrence exactly. Seeds must be sorted by
// column (diagonals step in ascending col0 order per gram, so they
// are).
func (ctx *searchCtx) advanceMergedBand(pJs, pM, pGa []int32, deltaRow []int32, i int, seeds []seedCell, em *emitCtx, out *bandTriple) {
	np := len(pJs)
	if np == 0 && len(seeds) == 0 {
		return
	}
	if len(seeds) == 0 && np > 0 && pJs[np-1]-pJs[0] == int32(np-1) {
		// The parent row is one contiguous column run — the dominant
		// shape on homologous paths — so the candidate set is just
		// [lo, hi+1] plus the Gb tail and every cell indexes the
		// parent arrays directly.
		ctx.advanceDenseBand(pJs[0], pM, pGa, deltaRow, i, em, out)
		return
	}
	s := ctx.s
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	mq := int32(len(ctx.query))
	colBound := ctx.colBound
	rowB := ctx.rowBound(i)
	var boundary, interior int64
	const farJ = int32(1) << 30

	gb := negInf
	pi := 0 // first parent index with pJs[pi] >= j-1
	si := 0 // first unconsumed seed
	j := farJ
	if np > 0 {
		j = pJs[0]
	}
	if len(seeds) > 0 && seeds[0].j < j {
		j = seeds[0].j
	}
	for j <= mq {
		for pi < np && pJs[pi] < j-1 {
			pi++
		}
		dg, ga := negInf, negInf
		sources := 0
		k := pi
		if k < np && pJs[k] == j-1 {
			dg = pM[k] + deltaRow[j-1]
			sources++
			k++
		}
		hasCellAtJ := k < np && pJs[k] == j
		if hasCellAtJ {
			// Merged-band cells are always alive (pM[k] > 0), so the
			// Ga recurrence always has its M source.
			ga = pM[k] + open
			sources++
			if pga := pGa[k]; pga > negInf && pga+ext > ga {
				ga = pga + ext
			}
		}
		if gb > negInf {
			sources++
		}
		sv := negInf
		for si < len(seeds) && seeds[si].j < j {
			si++
		}
		if si < len(seeds) && seeds[si].j == j {
			sv = seeds[si].v
			si++
		}
		mv := dg
		if ga > mv {
			mv = ga
		}
		if gb > mv {
			mv = gb
		}
		if sv > mv {
			mv = sv
		}
		if sources > 0 {
			// Seed-only cells were already counted as NGR entries by
			// the diagonal step; only sweep-computed cells count here.
			if sources >= 3 {
				interior++
			} else {
				boundary++
			}
		}
		alive := mv > 0 && mv >= rowB && mv >= colBound[j-1]
		if alive {
			if int(mv) >= ctx.h && sv < mv {
				// Seed cells at their own value were emitted by the
				// diagonal step; emit only improvements and sweep cells.
				em.emit(i, j, mv)
			}
			out.push(j, mv, ga)
		}
		// Gb carry to column j+1.
		ng := negInf
		if gb > negInf {
			ng = gb + ext
		}
		if alive && mv+open > ng {
			ng = mv + open
		}
		if ng <= 0 {
			ng = negInf
		}
		gb = ng
		if gb > negInf {
			j++
			continue
		}
		// Next candidate column: the first parent contribution past j
		// (a cell at j feeds j+1 diagonally; otherwise the next stored
		// column) or the next seed, whichever is smaller.
		nj := farJ
		if hasCellAtJ {
			nj = j + 1
		} else {
			t := pi
			for t < np && pJs[t] <= j {
				t++
			}
			if t < np {
				nj = pJs[t]
			}
		}
		if si < len(seeds) && seeds[si].j < nj {
			nj = seeds[si].j
		}
		j = nj
	}
	if !ctx.mute {
		ctx.st.EntriesBoundary += boundary
		ctx.st.EntriesInterior += interior
	}
}

// advanceDenseBand is advanceMergedBand specialised to a contiguous,
// seedless parent row [lo, lo+np): cells index the parent arrays
// directly, with no column cursors or candidate derivation. Emission,
// score filtering and entry counting are identical to the general
// sweep.
func (ctx *searchCtx) advanceDenseBand(lo int32, pM, pGa []int32, deltaRow []int32, i int, em *emitCtx, out *bandTriple) {
	s := ctx.s
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	mq := int32(len(ctx.query))
	colBound := ctx.colBound
	rowB := ctx.rowBound(i)
	var boundary, interior int64
	np := int32(len(pM))

	gb := negInf
	limit := lo + np // hi+1
	if limit > mq {
		limit = mq
	}
	for j := lo; j <= limit; j++ {
		k := j - lo
		dg, ga := negInf, negInf
		sources := 0
		if k > 0 {
			dg = pM[k-1] + deltaRow[j-1]
			sources++
		}
		if k < np {
			ga = pM[k] + open
			sources++
			if pga := pGa[k]; pga > negInf && pga+ext > ga {
				ga = pga + ext
			}
		}
		if gb > negInf {
			sources++
		}
		mv := dg
		if ga > mv {
			mv = ga
		}
		if gb > mv {
			mv = gb
		}
		if sources >= 3 {
			interior++
		} else {
			boundary++
		}
		alive := mv > 0 && mv >= rowB && mv >= colBound[j-1]
		if alive {
			if int(mv) >= ctx.h {
				em.emit(i, j, mv)
			}
			out.push(j, mv, ga)
		}
		ng := negInf
		if gb > negInf {
			ng = gb + ext
		}
		if alive && mv+open > ng {
			ng = mv + open
		}
		if ng <= 0 {
			ng = negInf
		}
		gb = ng
	}
	// Gb tail past the parent run.
	for j := limit + 1; j <= mq && gb > negInf; j++ {
		boundary++
		mv := gb
		alive := mv >= rowB && mv >= colBound[j-1]
		if alive {
			if int(mv) >= ctx.h {
				em.emit(i, j, mv)
			}
			out.push(j, mv, negInf)
		}
		ng := gb + ext
		if alive && mv+open > ng {
			ng = mv + open
		}
		if ng <= 0 {
			ng = negInf
		}
		gb = ng
	}
	if !ctx.mute {
		ctx.st.EntriesBoundary += boundary
		ctx.st.EntriesInterior += interior
	}
}
