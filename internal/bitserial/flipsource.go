package bitserial

import "math/rand"

// blockLen is how many words a wordSource fills, and how many gaps a
// flipStream draws, at a time.
const blockLen = 256

// Lags of math/rand's source, an additive lagged Fibonacci generator:
// its n-th output is x[n] = x[n-rngLen] + x[n-rngTap] mod 2^64, and
// rand.Float64 takes its uniform from the output's low 63 bits.
const (
	rngLen = 607
	rngTap = 273
)

// rejectWord is the smallest 63-bit word rand.Float64 rejects: from
// 2^63-512 up, word/2^63 rounds to U = 1, and Float64 draws again.
const rejectWord = 1<<63 - 512

// wordSource yields, a block at a time, the 63-bit words from which
// successive rand.Float64 calls take their uniforms U = word/2^63. It
// drops each word Float64 rejects and draws the next in its place, as
// Float64 does. It has two forms:
//
//   - the per-draw form wraps a *rand.Rand and draws one Int63 a word;
//   - the seeded form runs the generator behind rand.NewSource(seed)
//     itself. Since blockLen < rngTap, no output of a block depends on
//     another output of the same block, so a block is one add of two
//     earlier runs of outputs.
//
// The zero wordSource draws nothing: only a stream at rate <= 0 or >= 1,
// which never draws, holds one.
type wordSource struct {
	rng *rand.Rand
	// ring holds the seeded form's last rngLen outputs, output n at
	// index n mod rngLen; pos is the index of the next output.
	ring *[rngLen]uint64
	pos  int
}

// seededWords returns the seeded form of rand.New(rand.NewSource(seed)).
// It reads the source's first rngLen outputs and runs the recurrence
// backwards over them, x[n-rngLen] = x[n] - x[n-rngTap], so that the
// ring holds the rngLen outputs before draw 0 and every output,
// draw 0 included, comes from the forward recurrence.
func seededWords(seed int64) wordSource {
	src := rand.NewSource(seed).(rand.Source64)
	ring := new([rngLen]uint64)
	for i := range ring {
		ring[i] = src.Uint64()
	}
	for i := rngLen - 1; i >= 0; i-- {
		ring[i] -= ring[(i+rngLen-rngTap)%rngLen]
	}
	return wordSource{ring: ring}
}

// fill overwrites b with the next blockLen words.
func (s *wordSource) fill(b *[blockLen]uint64) {
	// About one word in 2^54 is rejected: a word v < 2^63 is when
	// v + 512 reaches 2^63, so bit 63 of sum flags one.
	var sum uint64
	if s.rng != nil {
		for i := range b {
			v := uint64(s.rng.Int63())
			b[i] = v
			sum |= v + (1<<63 - rejectWord)
		}
	} else {
		// The block's outputs come in at most three runs, each of which
		// wraps neither the index written nor the index read.
		for i := 0; i < blockLen; {
			w := s.pos
			r := (w + rngLen - rngTap) % rngLen
			n := min(blockLen-i, rngLen-w, rngLen-r)
			dst, src, out := s.ring[w:w+n], s.ring[r:r+n], b[i:i+n]
			for j := range dst {
				x := dst[j] + src[j]
				dst[j] = x
				v := x &^ (1 << 63)
				out[j] = v
				sum |= v + (1<<63 - rejectWord)
			}
			i += n
			s.pos = (w + n) % rngLen
		}
	}
	if sum < 1<<63 {
		return
	}
	for i := 0; i < blockLen; {
		if b[i] < rejectWord {
			i++
			continue
		}
		copy(b[i:], b[i+1:])
		b[blockLen-1] = s.word()
	}
}

// word draws one more word, rejected or not.
func (s *wordSource) word() uint64 {
	if s.rng != nil {
		return uint64(s.rng.Int63())
	}
	w := s.pos
	x := s.ring[w] + s.ring[(w+rngLen-rngTap)%rngLen]
	s.ring[w] = x
	s.pos = (w + 1) % rngLen
	return x &^ (1 << 63)
}
