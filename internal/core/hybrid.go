package core

import (
	"slices"

	"repro/internal/align"
	"repro/internal/cptree"
	"repro/internal/strie"
)

// The hybrid engine is Algorithm 3 (HYBRID). The horizontal phase —
// calMatrixByRow — advances the NGR diagonals along every trie path
// (shared across paths by the DFS) and records each first gap-open
// entry. Gap regions are then computed in the vertical phase —
// calMatrixByColumn — column by column, with cross-fork reuse: forks
// whose FGOEs share a row have equal FGOE scores (Theorem 5), so
// columns under a common query prefix are equal (Lemma 3) and are
// copied instead of recomputed, the duplicates being identified with
// the common-prefix tree of Algorithm 2.
//
// To know exactly how deep each gap region stays alive — which rows
// of the path the vertical phase needs — the engine also advances the
// region's row band during the descent, as a silent liveness oracle:
// those band entries are not counted (ctx.mute) and do not emit; all
// gap-region accounting and emission happens in the vertical phase.
// A region's vertical pass fires the moment its band dies (its rows
// are then fully determined by the current path prefix) or when the
// path itself ends; regions that stay alive across a trie branch are
// recomputed per branch, matching the paper's "recalculate ... as we
// are going up along the suffix trie", and the collector deduplicates
// the re-emitted hits.
//
// Like the DFS engine, the whole per-gram path is allocation-free in
// steady state: the recursion's per-level fork lists and oracle band
// rows live in per-depth frames (hframe) whose buffers persist across
// visits — a band row is written into the child level's SoA slab, so a
// parent's rows stay readable while every child of a node is explored
// — and the vertical phase stores its columns in flat arenas indexed
// by (offset, length) headers, with a Reset-able common-prefix tree.
// Everything hangs off the workspace and is re-armed per gram.

// pendingFGOE is a fork that has left its no-gap diagonal and awaits
// vertical gap-region computation.
//
// wm is the region's emitted watermark: every threshold cell at a row
// ≤ wm has already been forwarded by an earlier sibling branch of the
// descent. A gap-region cell (i, j) depends only on path rows ≤ i, so
// when a region alive across a trie branch is recomputed per branch,
// its rows within the still-shared path prefix reproduce the exact
// cells — same scores, same columns, same occurrences — the previous
// branch already emitted. The vertical phase skips those rows'
// emissions (counting them as CopiedEmissions) instead of re-running
// the occurrence fan-out and collector for provable
// no-ops. descend raises the watermark of a level's pendings to the
// level's depth after each fully-processed child edge; regions are
// born with wm = 0.
type pendingFGOE struct {
	col0   int32 // fork identity: 0-based q-prefix position in P
	row    int32 // FGOE row l
	col    int32 // FGOE column c (1-based)
	v      int32 // FGOE score (equal across a row group, Theorem 5)
	wm     int32 // emitted watermark: rows ≤ wm already forwarded
	memoID int32 // slot in hybridState.memo holding the region's last pass
}

// hframe is one level of the hybrid descent: the fork lists the parent
// built for this level's node, the level's oracle-band slab (the band
// rows of every fork alive here), and the node's memoised occurrence
// list. Buffers persist across visits, so re-entering a level
// allocates nothing once warm.
type hframe struct {
	ngr      []fork
	bands    []fork        // parallel to pendings
	pendings []pendingFGOE // the live regions' vertical-phase tickets
	dying    []pendingFGOE // regions whose oracle died on this edge
	slab     bandPair      // band rows of this level's forks
	occ      []int
	occValid bool
}

func (fr *hframe) reset() {
	fr.ngr, fr.bands = fr.ngr[:0], fr.bands[:0]
	fr.pendings, fr.dying = fr.pendings[:0], fr.dying[:0]
	fr.slab.reset()
	fr.occValid = false
}

// colData is one stored gap-region column header: rows
// [loRow, loRow+n) with cells at [off, off+n) in the vertical arenas
// (vm = best scores M, vgb = horizontal-gap scores Gb; negInf marks
// dead interior cells). Headers are values, so a copied column shares
// its cells — exactly what the reuse phase wants.
type colData struct {
	loRow int32
	off   int32
	n     int32
}

// colsRange is one fork's column run within the vcols header arena.
type colsRange struct {
	start, n int32
}

// hybridState is the hybrid engine's per-search scratch, owned by the
// workspace.
type hybridState struct {
	ctx       *searchCtx
	nodes     []strie.Node // nodes[d] is the trie node at depth q+d
	path      []byte       // X[1..depth]: path[i-1] is the row-i character
	pathCodes []int16      // dense letter codes of path, for δ-table rows
	frames    []hframe     // per-depth descent frames, frames[d] ↔ depth q+d

	cpt     *cptree.Tree // reusable common-prefix tree (Algorithm 2)
	vm, vgb []int32      // vertical-phase cell arenas (per-family lifetime)
	vcols   []colData    // vertical-phase column headers (per-family lifetime)
	vstored []colsRange  // per-fork column runs of the current group

	// memo[id] is region id's column run from its most recent vertical
	// pass — the per-search region→columns memo. The arenas live for
	// the whole fork family (reset in hybridGram), so a stored run
	// stays addressable
	// across verticals calls; when the region is recomputed on a later
	// sibling branch, the rows it shares with the memoised pass — rows
	// ≤ the emitted watermark — are loaded instead of recomputed
	// (ReusedEntries), and only deeper rows run the recurrence.
	memo []colsRange

	// stage buffers the horizontal phase's emitted cells as row runs;
	// flushEmits resolves each run's row occurrences (occAt) and
	// forwards each to the collector. Rows reference descent
	// frames, so the stage is drained before any truncation of
	// hs.nodes (end of every child-edge iteration in descend, end of
	// hybridGram).
	stage align.RunStage

	// The vertical phase emits column by column, so consecutive columns
	// of a fork revisit the same rows with consecutive j: vrows[i] holds
	// row i's open run and extends it by one append per cell. Runs
	// flush — one occurrence resolution per row, one batched forwardRun
	// per occurrence — on discontinuity and at the end of every
	// verticals call, while the path (occAt) is still valid. vdirty
	// lists the rows with staged cells, so a flush never scans vrows.
	vrows  []vertRow
	vdirty []int32
}

// vertRow is one matrix row's open emission run in the vertical phase:
// scores for query columns j0, j0+1, ... .
type vertRow struct {
	j0     int32
	scores []int32
}

// hybrid returns the workspace's hybrid state, arming it for ctx.
func (ws *workspace) hybrid(ctx *searchCtx) *hybridState {
	if ws.hs == nil {
		ws.hs = &hybridState{}
	}
	hs := ws.hs
	hs.ctx = ctx
	return hs
}

// frame returns descent frame i, growing the frame slice if needed.
// Callers must re-acquire frame pointers after calling frame with a
// larger i (growth moves the backing array).
func (hs *hybridState) frame(i int) *hframe {
	for len(hs.frames) <= i {
		hs.frames = append(hs.frames, hframe{})
	}
	return &hs.frames[i]
}

// hybridGram runs one fork family in hybrid mode.
func (ctx *searchCtx) hybridGram(node strie.Node, gram []byte, cols []int32) {
	q := len(gram)
	ws := ctx.ws
	hs := ws.hybrid(ctx)
	hs.nodes = append(hs.nodes[:0], node) // depth q
	hs.path = append(hs.path[:0], gram...)
	hs.pathCodes = hs.pathCodes[:0]
	fm := ctx.e.trie.Index()
	for _, ch := range gram {
		hs.pathCodes = append(hs.pathCodes, int16(fm.CodeOf(ch)))
	}
	f0 := hs.frame(0)
	f0.reset()
	hs.vm, hs.vgb = hs.vm[:0], hs.vgb[:0]
	hs.vcols = hs.vcols[:0]
	hs.memo = hs.memo[:0]

	for len(ws.forks) < len(cols) {
		ws.forks = append(ws.forks, fork{})
	}
	for k, col0 := range cols {
		f := &ws.forks[k]
		ctx.mute = true
		ctx.newForkInto(f, col0, gram)
		ctx.mute = false
		switch f.phase {
		case phaseNGR:
			if int(f.score) >= ctx.h {
				hs.emitRow(q, col0+int32(q), f.score)
			}
			f0.ngr = append(f0.ngr, *f)
		case phaseGap, phaseDead:
			p := pendingFGOE{col0: col0, row: f.fgoeAt, col: col0 + f.fgoeAt,
				v: f.fgoeAt * int32(ctx.s.Match), memoID: hs.newMemoID()}
			if f.phase == phaseDead {
				f0.dying = append(f0.dying, p)
			} else {
				f0.bands = append(f0.bands, *f)
				f0.pendings = append(f0.pendings, p)
			}
		}
	}
	if len(f0.dying) > 0 {
		hs.verticals(q, f0.dying)
	}
	if len(f0.ngr) > 0 || len(f0.bands) > 0 {
		hs.descend(0, node)
	}
	hs.flushEmits()
	hs.ctx = nil // don't let the pooled workspace pin this search's state
}

// occAt returns the occurrence positions of X[1..i] (row i ≥ q),
// memoised on the row's descent frame.
func (hs *hybridState) occAt(i int) []int {
	d := i - hs.nodes[0].Depth
	fr := &hs.frames[d]
	if !fr.occValid {
		fr.occ = hs.ctx.e.trie.OccurrencesAppend(hs.nodes[d], fr.occ[:0])
		fr.occValid = true
	}
	return fr.occ
}

// emitRow stages a horizontal-phase hit at matrix row i, 1-based query
// column j (NGR passes emit row-wise and batch into real runs; the
// vertical phase goes through emitVert's per-row open runs instead).
func (hs *hybridState) emitRow(i int, j int32, score int32) {
	if !hs.stage.Stage(int32(i), j, score) {
		hs.flushEmits()
		hs.stage.Stage(int32(i), j, score)
	}
}

// flushEmits drains the staged runs: one occurrence resolution per
// distinct row (memoised on the descent frames), then the batched
// AddRun per occurrence.
func (hs *hybridState) flushEmits() {
	if hs.stage.Empty() {
		return
	}
	cells := hs.stage.Cells()
	for _, r := range hs.stage.Runs() {
		row := int(r.Row)
		run := cells[r.Off : r.Off+r.N]
		for _, t := range hs.occAt(row) {
			hs.ctx.forwardRun(t+row-1, int(r.J0)-1, run)
		}
	}
	hs.stage.Reset()
}

// emitVertCell routes one vertical-phase threshold cell at (row i,
// 1-based column j). Rows at or below the region's emitted watermark
// were already forwarded — with identical scores, columns and
// occurrences — by an earlier sibling branch (see pendingFGOE.wm);
// they count as copied emissions and skip the forward path entirely.
func (hs *hybridState) emitVertCell(wm int32, i int, j, score int32) {
	if int32(i) <= wm && !hs.ctx.e.opts.DisableCopyReuse {
		hs.ctx.st.CopiedEmissions += int64(len(hs.occAt(i)))
		return
	}
	hs.emitVert(i, j, score)
}

// emitVert stages one vertical-phase cell into its row's open run,
// flushing the run first when j does not extend it.
func (hs *hybridState) emitVert(i int, j, score int32) {
	for len(hs.vrows) <= i {
		hs.vrows = append(hs.vrows, vertRow{})
	}
	r := &hs.vrows[i]
	if len(r.scores) > 0 {
		if r.j0+int32(len(r.scores)) == j {
			r.scores = append(r.scores, score)
			return
		}
		hs.forwardVertRow(i, r)
	} else {
		hs.vdirty = append(hs.vdirty, int32(i))
	}
	r.j0 = j
	r.scores = append(r.scores[:0], score)
}

// forwardVertRow fans row i's open run out over the row's occurrences
// into the collector. The caller owns the run bookkeeping.
func (hs *hybridState) forwardVertRow(i int, r *vertRow) {
	for _, t := range hs.occAt(i) {
		hs.ctx.forwardRun(t+i-1, int(r.j0)-1, r.scores)
	}
}

// flushVerts drains every dirty vertical-phase row. Called at the end
// of each verticals pass, while hs.nodes still covers the emitted rows.
func (hs *hybridState) flushVerts() {
	for _, i := range hs.vdirty {
		r := &hs.vrows[i]
		if len(r.scores) > 0 {
			hs.forwardVertRow(int(i), r)
			r.scores = r.scores[:0]
		}
	}
	hs.vdirty = hs.vdirty[:0]
}

// resetVerts abandons staged vertical-phase runs without forwarding
// (cancelled searches discard their hits anyway; a pooled workspace
// must not leak them into the next query).
func (hs *hybridState) resetVerts() {
	for _, i := range hs.vdirty {
		hs.vrows[i].scores = hs.vrows[i].scores[:0]
	}
	hs.vdirty = hs.vdirty[:0]
}

// descend is the horizontal phase walk over the node at descent level
// (trie depth q+level). The level's frame carries its live diagonal
// forks and the silent liveness oracles of the gap regions listed in
// its pendings (parallel slices).
func (hs *hybridState) descend(level int, node strie.Node) {
	ctx := hs.ctx
	if ctx.cancelled(0) {
		return // unwind the recursion; hits so far are discarded by the caller
	}
	ctx.st.NodesVisited++
	if node.Depth > ctx.st.MaxDepth {
		ctx.st.MaxDepth = node.Depth
	}
	fr := &hs.frames[level]
	if len(fr.ngr) == 0 && len(fr.bands) == 0 {
		return
	}
	if node.Depth >= ctx.lmax {
		if len(fr.pendings) > 0 {
			hs.verticals(node.Depth, fr.pendings)
		}
		return
	}
	descended := false
	sc := ctx.scratch()
	ctx.e.trie.Children(node, sc.nodes, sc.los, sc.his)
	for k, ch := range ctx.e.trie.Letters() {
		child := sc.nodes[k]
		if child.Lo >= child.Hi {
			continue
		}
		if k == ctx.barrier {
			// Hard reset: the barrier edge is never descended (and does
			// not count as a live child, so a barrier-only node still
			// finishes its regions through the leaf fallback below).
			continue
		}
		descended = true
		i := child.Depth
		cf := hs.frame(level + 1)
		fr = &hs.frames[level] // frame growth may have moved the array
		cf.reset()
		ngr, bands, pendings := fr.ngr, fr.bands, fr.pendings
		hs.nodes = append(hs.nodes, child)
		hs.path = append(hs.path, ch)
		hs.pathCodes = append(hs.pathCodes, int16(k))
		deltaRow := ctx.deltaRow(k)

		for _, f := range ngr {
			ctx.stepNGR(&f, deltaRow, i)
			switch f.phase {
			case phaseNGR:
				if int(f.score) >= ctx.h {
					hs.emitRow(i, f.col0+int32(i), f.score)
				}
				cf.ngr = append(cf.ngr, f)
			case phaseGap:
				p := pendingFGOE{col0: f.col0, row: int32(i), col: f.lo,
					v: f.score, memoID: hs.newMemoID()}
				ctx.mute = true
				mark := cf.slab.len()
				n := ctx.seedBandInto(i, f.lo, f.score, nil, &cf.slab)
				ctx.mute = false
				f.m, f.ga = cf.slab.m[mark:mark+n], cf.slab.ga[mark:mark+n]
				cf.bands = append(cf.bands, f)
				cf.pendings = append(cf.pendings, p)
			}
		}
		for bi := range bands {
			f := bands[bi]
			ctx.mute = true
			mark := cf.slab.len()
			newLo, n := ctx.advanceBandInto(f.lo, f.m, f.ga, deltaRow, i, nil, &cf.slab)
			ctx.mute = false
			if n == 0 {
				cf.dying = append(cf.dying, pendings[bi])
				continue
			}
			f.lo = newLo
			f.m, f.ga = cf.slab.m[mark:mark+n], cf.slab.ga[mark:mark+n]
			cf.bands = append(cf.bands, f)
			cf.pendings = append(cf.pendings, pendings[bi])
		}
		if len(cf.dying) > 0 {
			// These regions' rows are fully determined by the current
			// path prefix: compute them now, once per death point.
			hs.verticals(i, cf.dying)
		}
		if len(cf.ngr) > 0 || len(cf.bands) > 0 {
			hs.descend(level+1, child)
		}

		// Every region in this level's pendings has now been fully
		// emitted along this child edge (it either died on the edge or
		// was carried down and finished deeper): the rows it shares
		// with the next sibling's paths — rows ≤ this node's depth —
		// need not be re-forwarded there. Raise the watermarks.
		for bi := range fr.pendings {
			if fr.pendings[bi].wm < int32(node.Depth) {
				fr.pendings[bi].wm = int32(node.Depth)
			}
		}

		// Drain before truncating: staged rows at this child's depth
		// resolve occurrences through hs.nodes, and the next sibling
		// reuses (and resets) the child frame's occurrence memo.
		hs.flushEmits()
		hs.nodes = hs.nodes[:len(hs.nodes)-1]
		hs.path = hs.path[:len(hs.path)-1]
		hs.pathCodes = hs.pathCodes[:len(hs.pathCodes)-1]
	}
	ctx.release(sc)
	if !descended {
		fr = &hs.frames[level]
		if len(fr.pendings) > 0 {
			// Trie leaf: the path cannot grow; finish the live regions.
			hs.verticals(node.Depth, fr.pendings)
		}
	}
}

// verticals runs calMatrixByColumn for the given FGOEs over the
// current path, grouping by FGOE row per Lemma 3 and reusing columns
// through the common-prefix tree. pending is reordered in place
// ((row, col) is unique per fork, so the order is deterministic).
func (hs *hybridState) verticals(depth int, pending []pendingFGOE) {
	slices.SortFunc(pending, func(a, b pendingFGOE) int {
		if a.row != b.row {
			return int(a.row - b.row)
		}
		return int(a.col - b.col)
	})
	for lo := 0; lo < len(pending); {
		hi := lo + 1
		for hi < len(pending) && pending[hi].row == pending[lo].row {
			hi++
		}
		hs.verticalGroup(depth, pending[lo:hi])
		lo = hi
	}
	hs.flushVerts()
}

// newMemoID allocates a region's memo slot for the current family.
func (hs *hybridState) newMemoID() int32 {
	hs.memo = append(hs.memo, colsRange{})
	return int32(len(hs.memo) - 1)
}

// verticalGroup processes one same-FGOE-row group of forks in column
// order with cross-fork column reuse. Stored columns append to the
// per-family vertical arenas (kept live for the cross-branch memo);
// the group-relative state — the common-prefix tree and the group's
// column runs — resets per group.
func (hs *hybridState) verticalGroup(depth int, group []pendingFGOE) {
	ctx := hs.ctx
	if hs.cpt == nil {
		hs.cpt = cptree.New(ctx.query)
	} else {
		hs.cpt.Reset(ctx.query)
	}
	hs.vstored = hs.vstored[:0]
	for w, p := range group {
		if ctx.cancelled(0) {
			return
		}
		// Theorem 5: same-row FGOEs have equal scores. Reuse relies on
		// it; compute plainly if it ever failed.
		lcp, owner := hs.cpt.Insert(int(p.col-1), w)
		if p.v != group[0].v {
			lcp, owner = 0, -1
		}
		hs.vstored = append(hs.vstored, hs.verticalFork(depth, p, lcp, owner))
	}
}

// verticalFork computes (or copies) the gap region of one fork column
// by column, returning its header run in the vcols arena. lcp/owner
// describe how many leading columns can be copied from a previously
// processed fork in the same group.
func (hs *hybridState) verticalFork(depth int, p pendingFGOE, lcp, owner int) colsRange {
	ctx := hs.ctx
	mq := int32(len(ctx.query))
	start := int32(len(hs.vcols))
	count := func() int32 { return int32(len(hs.vcols)) - start }

	// Copy phase: Lemma 3 lets columns under the shared query prefix
	// be taken verbatim from the owner fork (headers are copied, cells
	// are shared). copied reports whether the fork's region was fully
	// determined here (column past the query end, or dying where the
	// owner died).
	copied := false
	if owner >= 0 {
		own := hs.vstored[owner]
		for d := 0; d < lcp && d < int(own.n) && !copied; d++ {
			j := p.col + int32(d)
			if j > mq {
				copied = true
				break
			}
			src := hs.vcols[own.start+int32(d)]
			hs.vcols = append(hs.vcols, src)
			for k, mv := range hs.vm[src.off : src.off+src.n] {
				if mv > negInf {
					ctx.st.ReusedEntries++
					if int(mv) >= ctx.h {
						hs.emitVertCell(p.wm, int(src.loRow)+k, j, mv)
					}
				}
			}
		}
		if int(own.n) < lcp && count() == own.n {
			// The owner's region died within the shared prefix; ours
			// dies at the same column (identical values).
			copied = true
		}
	}

	// Cross-branch memo: when the region was already computed on an
	// earlier sibling branch, its stored columns supply every row the
	// two paths share (rows ≤ the emitted watermark) verbatim; only
	// deeper rows recompute.
	var memo colsRange
	useMemo := false
	if !ctx.e.opts.DisableCopyReuse && p.wm >= p.row {
		memo = hs.memo[p.memoID]
		useMemo = memo.n > 0
	}

	// Compute phase: continue column by column until the region dies.
	for d := int(count()); !copied; d++ {
		j := p.col + int32(d)
		if j > mq {
			break
		}
		if ctx.cancelled(0) {
			break // one column is a bounded unit (≤ Lmax cells)
		}
		var prev colData
		hasPrev := false
		if d > 0 {
			prev, hasPrev = hs.vcols[start+int32(d-1)], true
		}
		var src colData
		hasSrc := false
		if useMemo && int32(d) < memo.n {
			src, hasSrc = hs.vcols[memo.start+int32(d)], true
		}
		col, any := hs.computeColumn(depth, p, j, prev, hasPrev, src, hasSrc)
		if !any {
			break
		}
		hs.vcols = append(hs.vcols, col)
	}
	out := colsRange{start: start, n: count()}
	if !ctx.e.opts.DisableCopyReuse {
		hs.memo[p.memoID] = out
	}
	return out
}

// computeColumn evaluates one gap-region column j for fork p over the
// current path, appending its cells to the vertical arenas. prev is
// column j−1 (hasPrev false for the FGOE column itself). The cell loop
// is branch-lean: the previous column is read through direct slice
// views, cells append straight to the arenas, and Theorem 2 is the
// same two-compare form the DFS sweep uses — for a fixed column the
// bound is max(colBound[j−1], rowBound(i)), with rowBound linear in
// the row.
//
// src (when hasSrc) is the same column from the region's memoised
// previous pass: its cells at rows ≤ p.wm — the rows the two passes'
// paths share — are loaded verbatim (a gap-region cell depends only on
// path rows above it, so they are provably identical), the
// vertical-gap carry is replayed over them, and the recurrence runs
// only for the rows beyond the shared prefix.
func (hs *hybridState) computeColumn(depth int, p pendingFGOE, j int32, prev colData, hasPrev bool, src colData, hasSrc bool) (colData, bool) {
	ctx := hs.ctx
	s := ctx.s
	open := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	delta, mCols := ctx.delta, int32(len(ctx.query))

	// Direct views of column j−1 (empty when hasPrev is false, so every
	// ranged read comes up negInf).
	var prevM, prevGb []int32
	prevLo := p.row
	if hasPrev {
		prevM = hs.vm[prev.off : prev.off+prev.n]
		prevGb = hs.vgb[prev.off : prev.off+prev.n]
		prevLo = prev.loRow
	}
	np := uint32(len(prevM))

	// Theorem 2, column-constant part and the row-linear base:
	// rowBound(i) = (h − Lmax·sa) + i·sa.
	scoreFilter := !ctx.e.opts.DisableScoreFilter
	var cb, rbBase, sa int32
	if scoreFilter {
		cb = ctx.colBound[j-1]
		sa = int32(s.Match)
		rbBase = int32(ctx.h - ctx.lmax*s.Match)
	}

	// Arena slices and cost counters live in locals for the duration of
	// the cell loop; both are written back once on the way out.
	vm, vgb := hs.vm, hs.vgb
	pathCodes := hs.pathCodes
	var interior, boundary, reused, copied int64

	off := int32(len(vm))
	loRow := p.row
	firstAlive, lastAlive := int32(-1), int32(-1)
	gaCarry := negInf
	prevHi := p.row - 1
	if hasPrev {
		prevHi = prev.loRow + prev.n - 1
	}
	maxRow := int32(depth)
	if int32(ctx.lmax) < maxRow {
		maxRow = int32(ctx.lmax)
	}

	startRow := p.row
	if hasSrc {
		srcTop := src.loRow + src.n - 1
		if srcTop > p.wm {
			srcTop = p.wm
		}
		if src.loRow <= srcTop {
			// Load the shared rows. Live cells count as reused entries
			// and, at threshold, as copied emissions; the carry replay
			// mirrors the recurrence's gaCarry update exactly.
			loRow = src.loRow
			firstAlive = src.loRow
			srcM := vm[src.off : src.off+src.n]
			srcGb := vgb[src.off : src.off+src.n]
			for r := src.loRow; r <= srcTop; r++ {
				mv, gbv := srcM[r-src.loRow], srcGb[r-src.loRow]
				vm = append(vm, mv)
				vgb = append(vgb, gbv)
				if mv > negInf {
					reused++
					lastAlive = r
					if int(mv) >= ctx.h {
						copied += int64(len(hs.occAt(int(r))))
					}
				}
				ng := negInf
				if gaCarry > negInf {
					ng = gaCarry + ext
				}
				if mv > negInf && mv+open > ng {
					ng = mv + open
				}
				if ng <= 0 {
					ng = negInf
				}
				gaCarry = ng
			}
			startRow = srcTop + 1
		} else {
			// The memoised run starts below the shared prefix: every
			// shared row of this column is dead.
			loRow = p.wm + 1
			startRow = p.wm + 1
		}
	}

	for i := startRow; i <= maxRow; i++ {
		if i == p.row && !hasPrev {
			// The FGOE cell itself: assigned from the horizontal
			// phase, not recalculated.
			vm = append(vm, p.v)
			vgb = append(vgb, negInf)
			firstAlive, lastAlive = i, i
			gaCarry = p.v + open
			if gaCarry <= 0 {
				gaCarry = negInf
			}
			if int(p.v) >= ctx.h {
				hs.emitVertCell(p.wm, int(i), j, p.v)
			}
			continue
		}
		if i > prevHi+1 && gaCarry == negInf {
			break // no source can reach deeper rows
		}
		var diag, gbv int32 = negInf, negInf
		sources := 0
		if k := uint32(i - 1 - prevLo); k < np {
			if pm := prevM[k]; pm > negInf {
				diag = pm + delta[int32(pathCodes[i-1])*mCols+j-1]
				sources++
			}
		}
		if k := uint32(i - prevLo); k < np {
			pm, pgb := prevM[k], prevGb[k]
			if pm > negInf || pgb > negInf {
				if pgb > negInf {
					gbv = pgb + ext
				}
				if pm > negInf && pm+open > gbv {
					gbv = pm + open
				}
				sources++
			}
		}
		if gaCarry > negInf {
			sources++
		}
		if sources == 0 {
			if firstAlive >= 0 {
				vm = append(vm, negInf)
				vgb = append(vgb, negInf)
			} else {
				loRow = i + 1
			}
			continue
		}
		mv := diag
		if gaCarry > mv {
			mv = gaCarry
		}
		if gbv > mv {
			mv = gbv
		}
		if sources >= 3 {
			interior++
		} else {
			boundary++
		}
		alive := mv > 0
		if alive && scoreFilter {
			b := cb
			if rb := rbBase + i*sa; rb > b {
				b = rb
			}
			alive = mv >= b
		}
		if alive {
			if int(mv) >= ctx.h {
				hs.emitVertCell(p.wm, int(i), j, mv)
			}
			if firstAlive < 0 {
				firstAlive = i
				loRow = i
			}
			lastAlive = i
			vm = append(vm, mv)
			vgb = append(vgb, gbv)
		} else if firstAlive >= 0 {
			vm = append(vm, negInf)
			vgb = append(vgb, negInf)
		} else {
			loRow = i + 1
		}
		// Vertical-gap carry to row i+1.
		ng := negInf
		if gaCarry > negInf {
			ng = gaCarry + ext
		}
		if alive && mv+open > ng {
			ng = mv + open
		}
		if ng <= 0 {
			ng = negInf
		}
		gaCarry = ng
	}
	ctx.st.EntriesInterior += interior
	ctx.st.EntriesBoundary += boundary
	ctx.st.ReusedEntries += reused
	ctx.st.CopiedEmissions += copied
	if firstAlive < 0 {
		hs.vm, hs.vgb = vm[:off], vgb[:off]
		return colData{}, false
	}
	n := lastAlive - loRow + 1
	hs.vm, hs.vgb = vm[:off+n], vgb[:off+n]
	return colData{loRow: loRow, off: off, n: n}, true
}
