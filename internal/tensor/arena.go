package tensor

import "fmt"

// Arena recycles tensor storage across pipeline stages and batches.
// Inference pipelines churn through short-lived activation tensors —
// one per image per layer — whose shapes repeat exactly from batch to
// batch; an Arena keeps the retired ones and hands their backing
// arrays back out, so a steady-state pass allocates nothing for
// activations.
//
// Get returns a tensor with UNSPECIFIED contents (possibly stale data
// from a previous use): callers must fully overwrite it. Put hands a
// tensor back; the caller must not touch it afterwards, and must not
// Put the same tensor twice without an intervening Get.
//
// An Arena is NOT safe for concurrent use. The batched pipeline calls
// Get/Put only from its serial coordination path (outputs are
// pre-acquired before work fans across the worker pool), and callers
// that share arenas across request handlers pool whole Arenas rather
// than locking one.
type Arena struct {
	free []*Tensor
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a tensor of the given shape, reusing a recycled tensor's
// backing array when a large enough one is free and allocating
// otherwise. The element contents are unspecified.
func (a *Arena) Get(h, w, c int) *Tensor {
	if h < 1 || w < 1 || c < 1 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%dx%d", h, w, c))
	}
	n := h * w * c
	for i := len(a.free) - 1; i >= 0; i-- {
		t := a.free[i]
		if cap(t.Data) >= n {
			last := len(a.free) - 1
			a.free[i] = a.free[last]
			a.free[last] = nil
			a.free = a.free[:last]
			t.H, t.W, t.C = h, w, c
			t.Data = t.Data[:n]
			return t
		}
	}
	return &Tensor{H: h, W: w, C: c, Data: make([]int64, n)}
}

// Put returns tensors to the arena for reuse; nil entries are ignored.
// The tensors (and any aliases of their Data) must no longer be in use.
func (a *Arena) Put(ts ...*Tensor) {
	for _, t := range ts {
		if t != nil && cap(t.Data) > 0 {
			a.free = append(a.free, t)
		}
	}
}
