package core

// The batched emission path. Band kernels report threshold-reaching
// cells through small per-context staging buffers (align.RunStage) as
// row runs — one append per cell, no table probe, no occurrence
// resolution. The emit contexts flush staged runs in bulk at natural
// ownership boundaries (frame pop, child-edge end, linear-walk end):
// a flush resolves the path node's occurrences once, fans each run out
// per occurrence, and lands it in the collector via the block-batched
// AddRun — one probe window per run block instead of one per cell.

// forwardRun lands one occurrence-resolved row run — consecutive query
// end positions qEnd0, qEnd0+1, ... at text end tEnd — in the
// collector and counts its cells as emitted.
func (ctx *searchCtx) forwardRun(tEnd, qEnd0 int, scores []int32) {
	ctx.c.AddRun(tEnd, qEnd0, scores)
	ctx.st.EmittedHits += int64(len(scores))
}
