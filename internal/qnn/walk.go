package qnn

// callOrder calls fn(f, w) for every (filter, window) pair of a MAC
// layer in datapath order: windows in row chunks of rowLen, every
// filter swept across a chunk before the next chunk starts. A conv's
// row is its output row; a dense layer's one chunk is the whole batch,
// so every neuron runs across the batch in turn. It is the order of
// dotMulti's per-pair fallback and of a FlipWalker's walk, and a
// stateful engine's fault streams land on the same (window, filter,
// bit) positions through either.
func callOrder(windows, filters, rowLen int, fn func(f, w int) error) error {
	for lo := 0; lo < windows; lo += rowLen {
		hi := min(lo+rowLen, windows)
		for f := 0; f < filters; f++ {
			for w := lo; w < hi; w++ {
				if err := fn(f, w); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// FlipWalker is a LaneDotter that also stands for a stateful engine (a
// Monte-Carlo trial's fault injector, a bitserial.Walker) consuming
// its fault streams call by call. A MAC stage on the lane path
// computes the layer's clean values with LaneBatch and hands them to
// DotFromClean in callOrder, so the engine sees the call sequence its
// own DotProduct would see through dotMulti's fallback. DotFromClean
// returns a call's value given its clean value, and calls window for
// the call's window only when it needs the operands. DotProduct is the
// stateful engine's, per call: a stage off the lane path (an operand
// out of the engine's range) reaches it through dotMulti, as for a
// plain Dotter. A FlipWalker must not implement MultiDotter, and, like
// any stateful Dotter, runs on one worker.
type FlipWalker interface {
	LaneDotter
	DotFromClean(window func() []uint64, weights []uint64, clean uint64) (uint64, error)
}

// walk hands a MAC layer's clean values to fw in callOrder and stores
// its value of each call in their place: outs[f][w] for filter f and
// window w, or outs[w][f] when byInput. window(w) yields window w.
func walk(fw FlipWalker, windows int, window func(w int) []uint64, filters, outs [][]uint64, byInput bool, rowLen int) error {
	cur := 0
	win := func() []uint64 { return window(cur) }
	return callOrder(windows, len(filters), rowLen, func(f, w int) error {
		var out *uint64
		if byInput {
			out = &outs[w][f]
		} else {
			out = &outs[f][w]
		}
		cur = w
		v, err := fw.DotFromClean(win, filters[f], *out)
		*out = v
		return err
	})
}
