package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// vnodesPerWorker is how many virtual nodes each worker places on the
// hash ring. 64 keeps the key-space split within a few percent of even
// for small fleets while the ring stays tiny (a few KB).
const vnodesPerWorker = 64

// ring is a consistent-hash ring over the worker set. Shard keys hash
// onto the ring and are owned by the next virtual node clockwise;
// adding or removing one worker only moves the keys that node owned,
// so the evaluate/coalescing key of a design point stays hot in
// exactly one worker's result LRU across fleet reconfigurations.
type ring struct {
	hashes []uint64 // sorted vnode positions
	owners []int    // worker index per vnode, parallel to hashes
	n      int      // worker count
}

func newRing(workers []string) *ring {
	r := &ring{n: len(workers)}
	type vnode struct {
		h uint64
		w int
	}
	vns := make([]vnode, 0, len(workers)*vnodesPerWorker)
	for wi, name := range workers {
		for v := 0; v < vnodesPerWorker; v++ {
			vns = append(vns, vnode{hash64(name + "#" + strconv.Itoa(v)), wi})
		}
	}
	// Ties (two vnodes at one position) break by worker index so the
	// ring is a pure function of the configured worker list.
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].h != vns[j].h {
			return vns[i].h < vns[j].h
		}
		return vns[i].w < vns[j].w
	})
	r.hashes = make([]uint64, len(vns))
	r.owners = make([]int, len(vns))
	for i, vn := range vns {
		r.hashes[i] = vn.h
		r.owners[i] = vn.w
	}
	return r
}

// hash64 is FNV-1a finished with a splitmix64-style avalanche. Raw
// FNV keeps near-identical inputs (worker URLs differing in one port
// digit, vnode suffixes counting up) correlated enough to split the
// ring 90/10; the finalizer diffuses every input bit across the word.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sequence returns every worker index in ring order starting at the
// key's owner, each worker exactly once — the failover order of a
// shard keyed by key.
func (r *ring) sequence(key string) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i, left := r.start(key), r.n; left > 0; i = (i + 1) % len(r.hashes) {
		w := r.owners[i]
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
			left--
		}
	}
	return out
}

// start locates the first vnode clockwise of the key's hash.
func (r *ring) start(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return i
}
