package variation

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sta"
	"repro/internal/tech"
)

// drainYieldWorkers empties the idle-worker list, so that the next stream
// starts from freshly allocated workers.
func drainYieldWorkers() {
	for takeIdleWorker() != nil {
	}
}

// TestYieldStreamScratchReuse: a stream whose workers come warm from
// another design's stream — larger, smaller, or the same — emits the bytes
// of a stream on fresh workers, at one and two workers (CI runs it under
// -race). A warm stream also allocates little: the idle workers carry its
// sample block, batched re-timing and re-timer, leakage and generator
// scratch.
func TestYieldStreamScratchReuse(t *testing.T) {
	const dies = 64
	proc := tech.Default45nm()
	type design struct {
		an     *sta.Analyzer
		al     *core.Allocator
		nom    *sta.Timing
		solves *core.SolveCache
	}
	designs := map[string]design{}
	for _, name := range []string{"c5315", "c6288", "industrial1"} {
		pl := placed(t, name)
		an, err := sta.NewAnalyzer(pl, sta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nom, err := an.Run(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		al, err := core.NewAllocator(pl, nom)
		if err != nil {
			t.Fatal(err)
		}
		designs[name] = design{an: an, al: al, nom: nom, solves: core.NewSolveCache(al)}
	}
	// stream runs one study against the design's long-lived solve cache, as
	// a server does against a cached prefix.
	stream := func(name string, workers int, seed int64, emit bool) []byte {
		t.Helper()
		d := designs[name]
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		var fn func(int, *TuneResult) error
		if emit {
			fn = func(_ int, r *TuneResult) error { return enc.Encode(r) }
		}
		opts := TuneOptions{GuardbandPct: 0.005, Workers: workers, SolveCache: d.solves}
		st, err := YieldStream(context.Background(), d.an, d.al, d.nom, proc, Default(), dies, seed, opts, fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	fresh := map[string][]byte{}
	for name := range designs {
		drainYieldWorkers()
		fresh[name] = stream(name, 1, 11, true)
	}
	for _, workers := range []int{1, 2} {
		drainYieldWorkers()
		for i, name := range []string{"c5315", "industrial1", "c5315", "c6288"} {
			if got := stream(name, workers, 11, true); !bytes.Equal(got, fresh[name]) {
				t.Fatalf("workers=%d stream %d (%s) on reused workers differs from a fresh stream:\n%s\nfresh:\n%s",
					workers, i, name, got, fresh[name])
			}
		}
	}

	// Warm each design's solve cache the way a serving process's fills, so
	// that the recurring first-attempt targets hit it; then a warm stream
	// per design pays only its results, its per-stream bases and the
	// allocations of the attempts no cache can serve.
	var total uint64
	for _, name := range []string{"c5315", "c6288", "industrial1"} {
		for seed := int64(100); seed < 116; seed++ {
			stream(name, 1, seed, false)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stream(name, 1, 200, false)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	if mean := total / 3; mean >= 1<<20 {
		t.Errorf("a warm stream allocates %d bytes on average, want under 1 MB", mean)
	}
}
