package serve

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// The serve hot path, measured end to end through HTTP: a cached request
// pays JSON + one Allocator.At + solve on the shared prefix; a cold request
// additionally rebuilds the prefix (gen, place, STA, allocator). The gap is
// the value of the coalesced LRU — CI smoke-runs both at -benchtime=1x.

func BenchmarkServeTuneCachedPrefix(b *testing.B) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	req := TuneRequest{DesignRef: DesignRef{Benchmark: "c1355"}, Beta: 0.05}
	if _, err := c.Tune(context.Background(), req); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Tune(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeTuneColdPrefix(b *testing.B) {
	// Capacity 1 with alternating designs: every request evicts the
	// other's prefix, so each one rebuilds from scratch.
	s := New(Options{CacheSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	reqs := [2]TuneRequest{
		{DesignRef: DesignRef{Benchmark: "c1355"}, Beta: 0.05},
		{DesignRef: DesignRef{Netlist: chainBench(439)}, Beta: 0.05},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Tune(context.Background(), reqs[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeYieldStream(b *testing.B) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	req := YieldRequest{DesignRef: DesignRef{Benchmark: "c1355"}, Dies: 16, Seed: 5}
	if _, err := c.Yield(context.Background(), req, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Yield(context.Background(), req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignKey hashes c5315, the largest cold-upload design: its
// design key, which each tier computes once per distinct upload, and the
// upload digest of its .bench text, which each tier takes per request.
func BenchmarkDesignKey(b *testing.B) {
	d, err := gen.Build("c5315", cell.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DesignKey(d, 0)
		}
	})
	b.Run("upload-digest", func(b *testing.B) {
		var text strings.Builder
		if err := netlist.WriteBench(&text, d); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(text.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			uploadDigest("hot0", 0, text.String())
		}
	})
}
