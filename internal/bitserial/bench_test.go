package bitserial

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkMultiply8Bit(b *testing.B) {
	e, err := NewEngine(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Multiply(uint64(i)&255, uint64(i>>8)&255); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDotProduct16x8Bit(b *testing.B) {
	e, err := NewEngine(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	ns := make([]uint64, 16)
	ss := make([]uint64, 16)
	for i := range ns {
		ns[i] = uint64(i * 7 % 256)
		ss[i] = uint64(i * 13 % 256)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.DotProduct(ns, ss); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastDotProduct16x8Bit(b *testing.B) {
	e, err := NewFastEngine(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	ns := make([]uint64, 16)
	ss := make([]uint64, 16)
	for i := range ns {
		ns[i] = uint64(i * 7 % 256)
		ss[i] = uint64(i * 13 % 256)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.DotProduct(ns, ss); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatch builds a LeNet-conv2-shaped workload: 64 windows of 150
// elements against 16 filters at 4-bit precision.
func benchBatch(b *testing.B) (*BatchedStripes, [][]uint64, [][]uint64, [][]uint64) {
	b.Helper()
	be, err := NewBatchedStripes(4, 512)
	if err != nil {
		b.Fatal(err)
	}
	const n, batch, filters = 150, 64, 16
	windows := make([][]uint64, batch)
	for w := range windows {
		win := make([]uint64, n)
		for i := range win {
			win[i] = uint64(w*31+i*7) & 15
		}
		windows[w] = win
	}
	fs := make([][]uint64, filters)
	for f := range fs {
		fl := make([]uint64, n)
		for i := range fl {
			fl[i] = uint64(f*17+i*13) & 15
		}
		fs[f] = fl
	}
	outs := make([][]uint64, filters)
	for f := range outs {
		outs[f] = make([]uint64, batch)
	}
	return be, windows, fs, outs
}

// BenchmarkFilterBatch64x16 is the batched engine on a LeNet-conv2
// shape: 64 windows x 16 filters x 150 elements per call.
func BenchmarkFilterBatch64x16(b *testing.B) {
	be, windows, fs, outs := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := be.FilterBatch(windows, fs, outs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(windows)*len(fs)*len(windows[0]))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mmac/s")
}

// BenchmarkFilterBatch64x16Scalar is BenchmarkFilterBatch64x16 with
// the vector kernels forced off — the portable (purego / non-AVX2)
// sweep. The ratio of the two Mmac/s figures is the SIMD speedup.
func BenchmarkFilterBatch64x16Scalar(b *testing.B) {
	prev := setVecForTest(false)
	defer setVecForTest(prev)
	be, windows, fs, outs := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := be.FilterBatch(windows, fs, outs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(windows)*len(fs)*len(windows[0]))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mmac/s")
}

// BenchmarkSequential64x16 is the same workload through per-pair
// FastEngine calls — the baseline FilterBatch must beat.
func BenchmarkSequential64x16(b *testing.B) {
	be, windows, fs, outs := benchBatch(b)
	fe := be.fe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f, fl := range fs {
			for w, win := range windows {
				v, _, err := fe.DotProduct(win, fl)
				if err != nil {
					b.Fatal(err)
				}
				outs[f][w] = v
			}
		}
	}
	b.ReportMetric(float64(len(windows)*len(fs)*len(windows[0]))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mmac/s")
}

// BenchmarkPerturbedDotProduct is the fault-injecting engine on a
// 400-element 4-bit dot product, with multiply and accumulate flips at
// a near-nominal rate (sparse) and at the ≈5% BER of a high-σ
// Monte-Carlo trial (dense).
func BenchmarkPerturbedDotProduct(b *testing.B) {
	const n = 400
	ns := make([]uint64, n)
	ss := make([]uint64, n)
	for i := range ns {
		ns[i] = uint64(i*7) & 15
		ss[i] = uint64(i*13) & 15
	}
	for _, bc := range []struct {
		name string
		p    float64
	}{{"sparse", 1e-4}, {"dense", 0.05}} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := NewPerturbedEngine(4, n, FlipRates{Mul: bc.p, Acc: bc.p},
				rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.DotProduct(ns, ss); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(e.InjectedFlips())/float64(b.N), "flips/op")
		})
	}
}

// BenchmarkFlipStreamRefill is the cost of drawing one geometric flip
// gap at the sparse and dense ends of a Monte-Carlo trial's rates, from
// the per-draw (rand) and seeded source forms, with the vector gap
// kernel on and off.
func BenchmarkFlipStreamRefill(b *testing.B) {
	for _, vec := range []bool{true, false} {
		for _, form := range []string{"rand", "seeded"} {
			for _, p := range []float64{0.01, 0.05} {
				b.Run(fmt.Sprintf("vec=%v/%s/%v", vec, form, p), func(b *testing.B) {
					prev := setVecForTest(vec)
					defer setVecForTest(prev)
					if useVec != vec {
						b.Skip("no vector kernel in this build")
					}
					src := wordSource{rng: rand.New(rand.NewSource(1))}
					if form == "seeded" {
						src = seededWords(1)
					}
					s := newFlipStream(p, src)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.refill()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.gaps)), "ns/gap")
				})
			}
		}
	}
}

func BenchmarkSignedDotProduct(b *testing.B) {
	dot := signedDot(b, 8, 16)
	ns := make([]int64, 16)
	ss := make([]int64, 16)
	for i := range ns {
		ns[i] = int64(i*7%200) - 100
		ss[i] = int64(i*13%200) - 100
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dot(ns, ss); err != nil {
			b.Fatal(err)
		}
	}
}
