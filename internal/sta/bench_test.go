package sta

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/place"
)

// The pair below is the tentpole measurement of the batched Monte-Carlo
// path: Analyze rebuilds the timing graph for every DelayScale vector,
// Analyzer.Run re-times through precomputed topology into reused buffers.

func benchPlacement(b *testing.B, name string) *place.Placement {
	b.Helper()
	l := cell.Default()
	d, err := gen.Build(name, l)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(d, l, place.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

func benchScale(n int) []float64 {
	rng := rand.New(rand.NewSource(17))
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.9 + 0.2*rng.Float64()
	}
	return s
}

func benchmarkAnalyze(b *testing.B, name string) {
	pl := benchPlacement(b, name)
	scale := benchScale(len(pl.Design.Gates))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(pl, Options{DelayScale: scale}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkAnalyzerRun(b *testing.B, name string) {
	pl := benchPlacement(b, name)
	scale := benchScale(len(pl.Design.Gates))
	an, err := NewAnalyzer(pl, Options{})
	if err != nil {
		b.Fatal(err)
	}
	buf := &Timing{}
	if _, err := an.Run(scale, buf); err != nil { // warm the buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Run(scale, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeC5315(b *testing.B)       { benchmarkAnalyze(b, "c5315") }
func BenchmarkAnalyzeC6288(b *testing.B)       { benchmarkAnalyze(b, "c6288") }
func BenchmarkAnalyzeIndustrial1(b *testing.B) { benchmarkAnalyze(b, "industrial1") }

func BenchmarkAnalyzerRunC5315(b *testing.B)       { benchmarkAnalyzerRun(b, "c5315") }
func BenchmarkAnalyzerRunC6288(b *testing.B)       { benchmarkAnalyzerRun(b, "c6288") }
func BenchmarkAnalyzerRunIndustrial1(b *testing.B) { benchmarkAnalyzerRun(b, "industrial1") }

// BenchmarkRunLightBatch re-times 16 dies per call, the yield stream's
// batch width (go forces the portable lane loops), and one die per call,
// the tuning tail's re-time, and reports the cost per die.
func BenchmarkRunLightBatch(b *testing.B) {
	type variant struct {
		label string
		w     int
		avx2  bool
	}
	variants := []variant{{"one", 1, lanesAVX2}}
	for _, avx2 := range lanePaths() {
		label := "go"
		if avx2 {
			label = "avx2"
		}
		variants = append(variants, variant{label, 16, avx2})
	}
	for _, name := range []string{"c5315", "c6288", "industrial1"} {
		pl := benchPlacement(b, name)
		an, err := NewAnalyzer(pl, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range variants {
			w := v.w
			scale := benchScale(len(pl.Design.Gates) * w)
			b.Run(name+"/"+v.label, func(b *testing.B) {
				withLanes(v.avx2, func() {
					tb, err := an.RunLightBatch(scale, w, nil) // warm the buffer
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if tb, err = an.RunLightBatch(scale, w, tb); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/die")
				})
			})
		}
	}
}
