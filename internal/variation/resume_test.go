package variation

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/tech"
)

// recordedRun captures one full YieldStream run: every per-die result, every
// checkpoint state, and the final stats.
type recordedRun struct {
	results []*TuneResult
	ckpts   map[int]YieldAccum // die count -> accumulator state at that point
	stats   *YieldStats
}

func recordRun(t *testing.T, dies, every int, opts TuneOptions, sopts StreamOptions) *recordedRun {
	t.Helper()
	an, al, nom := streamFixture(t)
	run := &recordedRun{ckpts: map[int]YieldAccum{}}
	sopts.CheckpointEvery = every
	sopts.OnCheckpoint = func(die int, acc YieldAccum) error {
		if die != acc.Dies {
			t.Fatalf("checkpoint at die %d carries accumulator covering %d dies", die, acc.Dies)
		}
		run.ckpts[die] = acc
		return nil
	}
	start := sopts.StartDie
	next := start
	st, err := YieldStreamResumable(context.Background(), an, al, nom, tech.Default45nm(), Default(),
		dies, 7, opts, sopts, func(die int, r *TuneResult) error {
			if die != next {
				t.Fatalf("emitted die %d, want %d", die, next)
			}
			next++
			run.results = append(run.results, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	run.stats = st
	return run
}

// TestYieldStreamResumableSuffixIdentity: resuming from any checkpoint must
// replay the remaining dies, the remaining checkpoints and the final stats
// byte-identically to the unbroken run — the contract /v1/yield resume rides
// on. The accumulator states additionally cross a JSON round trip first,
// exactly as they would over the wire.
func TestYieldStreamResumableSuffixIdentity(t *testing.T) {
	dies := 23
	if !testing.Short() {
		dies = yieldChunk + 23 // resume across a chunk boundary too
	}
	opts := TuneOptions{GuardbandPct: 0.005, Workers: 4}
	const every = 5
	full := recordRun(t, dies, every, opts, StreamOptions{})
	if len(full.ckpts) == 0 {
		t.Fatal("full run emitted no checkpoints; resume proves nothing")
	}
	if _, ok := full.ckpts[dies]; ok {
		t.Fatalf("checkpoint emitted at the final die %d; the footer covers it", dies)
	}

	for start, acc := range full.ckpts {
		// Round-trip the accumulator through JSON: the resumed run must
		// see bit-identical float64 state after a wire crossing.
		raw, err := json.Marshal(acc)
		if err != nil {
			t.Fatalf("checkpoint at %d: %v", start, err)
		}
		var prior YieldAccum
		if err := json.Unmarshal(raw, &prior); err != nil {
			t.Fatalf("checkpoint at %d: %v", start, err)
		}
		if prior != acc {
			t.Fatalf("checkpoint at %d did not survive a JSON round trip:\nbefore %+v\nafter  %+v", start, acc, prior)
		}

		res := recordRun(t, dies, every, opts, StreamOptions{StartDie: start, Prior: &prior})
		if len(res.results) != dies-start {
			t.Fatalf("resume from %d emitted %d dies, want %d", start, len(res.results), dies-start)
		}
		for i, r := range res.results {
			requireTuneResultEqual(t, start+i, full.results[start+i], r)
		}
		if *res.stats != *full.stats {
			t.Fatalf("resume from %d: final stats diverged:\nfull   %+v\nresume %+v", start, full.stats, res.stats)
		}
		for die, want := range full.ckpts {
			if die <= start {
				continue
			}
			got, ok := res.ckpts[die]
			if !ok {
				t.Fatalf("resume from %d skipped the checkpoint at die %d", start, die)
			}
			if got != want {
				t.Fatalf("resume from %d: checkpoint at die %d diverged:\nfull   %+v\nresume %+v", start, die, want, got)
			}
		}
	}
}

// TestYieldStreamResumableFooterOnly: StartDie == nDies is the degenerate
// resume after the last die result was already delivered but the footer was
// lost — no dies are tuned, the stats come straight from the prior state.
func TestYieldStreamResumableFooterOnly(t *testing.T) {
	const dies = 9
	opts := TuneOptions{GuardbandPct: 0.005}
	full := recordRun(t, dies, 1, opts, StreamOptions{})

	// Checkpoints stop one die short of the end; fold the last result to
	// obtain the full-coverage accumulator a footer-only resume would carry.
	acc := full.ckpts[dies-1]
	o := opts
	o.setDefaults()
	an, al, nom := streamFixture(t)
	_ = an
	_ = al
	acc.fold(full.results[dies-1], nom.DcritPS*(1+o.SlackTolPct))

	emits := 0
	st, err := YieldStreamResumable(context.Background(), an, al, nom, tech.Default45nm(), Default(),
		dies, 7, opts, StreamOptions{StartDie: dies, Prior: &acc},
		func(die int, r *TuneResult) error { emits++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if emits != 0 {
		t.Fatalf("footer-only resume emitted %d dies, want 0", emits)
	}
	if *st != *full.stats {
		t.Fatalf("footer-only resume stats diverged:\nfull   %+v\nresume %+v", full.stats, st)
	}
}

// TestYieldStreamResumableAdaptive: a resumed adaptive (TargetCI) stream must
// converge at the same absolute die as the unbroken run — the termination
// check reads only the accumulator, which resume restores exactly.
func TestYieldStreamResumableAdaptive(t *testing.T) {
	const dies = 60
	opts := TuneOptions{GuardbandPct: 0.005, TargetCI: 0.15}
	full := recordRun(t, dies, 4, opts, StreamOptions{})
	if full.stats.Dies >= dies {
		t.Fatalf("adaptive run used all %d dies; convergence proves nothing", dies)
	}
	var start int
	for die := range full.ckpts {
		if die < full.stats.Dies && die > start {
			start = die
		}
	}
	if start == 0 {
		t.Fatalf("no checkpoint before the convergence die %d", full.stats.Dies)
	}
	prior := full.ckpts[start]
	res := recordRun(t, dies, 4, opts, StreamOptions{StartDie: start, Prior: &prior})
	if *res.stats != *full.stats {
		t.Fatalf("adaptive resume from %d diverged:\nfull   %+v\nresume %+v", start, full.stats, res.stats)
	}
	if len(res.results) != full.stats.Dies-start {
		t.Fatalf("adaptive resume emitted %d dies, want %d", len(res.results), full.stats.Dies-start)
	}
}

// TestYieldStreamResumableValidation: malformed resume state must be rejected
// up front, not silently produce wrong statistics.
func TestYieldStreamResumableValidation(t *testing.T) {
	an, al, nom := streamFixture(t)
	proc := tech.Default45nm()
	opts := TuneOptions{GuardbandPct: 0.005}
	cases := []struct {
		name  string
		sopts StreamOptions
		want  string
	}{
		{"negative start", StreamOptions{StartDie: -1}, "out of range"},
		{"start past end", StreamOptions{StartDie: 11, Prior: &YieldAccum{Dies: 11}}, "out of range"},
		{"missing prior", StreamOptions{StartDie: 3}, "requires a Prior"},
		{"prior mismatch", StreamOptions{StartDie: 3, Prior: &YieldAccum{Dies: 2}}, "covers 2 dies"},
		{"prior without start", StreamOptions{Prior: &YieldAccum{Dies: 2}}, "StartDie is 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := YieldStreamResumable(context.Background(), an, al, nom, proc, Default(),
				10, 7, opts, tc.sopts, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// FuzzYieldResume: for a fuzzed seed, die count (1–48 c1355 dies),
// checkpoint interval (0–8) and resume point, resuming from a checkpoint
// the unbroken stream emitted (after a JSON wire crossing) replays every
// later per-die result, every later checkpoint and the footer stats bit for
// bit; out-of-range starts and mismatched priors fail with an error.
func FuzzYieldResume(f *testing.F) {
	an, al, nom := streamFixture(f)
	proc := tech.Default45nm()
	opts := TuneOptions{GuardbandPct: 0.005, Workers: 2}
	f.Add(int64(7), uint8(22), uint8(5), uint8(2))
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(-3), uint8(47), uint8(8), uint8(200))
	f.Add(int64(42), uint8(8), uint8(1), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nDies, every, at uint8) {
		dies := 1 + int(nDies)%48
		type run struct {
			results []string // each die's result, rendered when emitted
			ckpts   map[int]YieldAccum
			stats   string
		}
		stream := func(sopts StreamOptions) *run {
			r := &run{ckpts: map[int]YieldAccum{}}
			sopts.CheckpointEvery = int(every) % 9
			sopts.OnCheckpoint = func(die int, acc YieldAccum) error {
				r.ckpts[die] = acc
				return nil
			}
			st, err := YieldStreamResumable(context.Background(), an, al, nom, proc, Default(),
				dies, seed, opts, sopts, func(die int, res *TuneResult) error {
					if want := sopts.StartDie + len(r.results); die != want {
						t.Fatalf("emitted die %d, want %d", die, want)
					}
					r.results = append(r.results, resultText(res))
					return nil
				})
			if err != nil {
				t.Fatalf("stream from %d: %v", sopts.StartDie, err)
			}
			r.stats = fmt.Sprintf("%+v", *st)
			return r
		}
		full := stream(StreamOptions{})
		if k := int(every) % 9; k > 0 && len(full.ckpts) != (dies-1)/k {
			t.Fatalf("%d dies every %d: %d checkpoints, want one per multiple below the end", dies, k, len(full.ckpts))
		}

		starts := []int{0}
		for die := range full.ckpts {
			starts = append(starts, die)
		}
		slices.Sort(starts)
		start := starts[int(at)%len(starts)]
		sopts := StreamOptions{StartDie: start}
		if start > 0 {
			raw, err := json.Marshal(full.ckpts[start])
			if err != nil {
				t.Fatal(err)
			}
			sopts.Prior = new(YieldAccum)
			if err := json.Unmarshal(raw, sopts.Prior); err != nil {
				t.Fatal(err)
			}
		}
		res := stream(sopts)
		if !slices.Equal(res.results, full.results[start:]) {
			t.Fatalf("resume from %d of %d: per-die results diverged", start, dies)
		}
		for die, want := range full.ckpts {
			got, ok := res.ckpts[die]
			if die > start && (!ok || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want)) {
				t.Fatalf("resume from %d: checkpoint at die %d is %+v, want %+v", start, die, got, want)
			}
		}
		for die := range res.ckpts {
			if _, ok := full.ckpts[die]; !ok || die <= start {
				t.Fatalf("resume from %d emitted a stray checkpoint at die %d", start, die)
			}
		}
		if res.stats != full.stats {
			t.Fatalf("resume from %d: footer %s, want %s", start, res.stats, full.stats)
		}

		mid := 1 + int(at)%dies
		for _, bad := range []StreamOptions{
			{StartDie: -1 - int(at)},
			{StartDie: dies + 1 + int(at), Prior: &YieldAccum{Dies: dies + 1 + int(at)}},
			{StartDie: mid},
			{StartDie: mid, Prior: &YieldAccum{Dies: mid - 1}},
			{StartDie: mid, Prior: &YieldAccum{Dies: mid + 1}},
			{Prior: &YieldAccum{Dies: mid}},
		} {
			if _, err := YieldStreamResumable(context.Background(), an, al, nom, proc, Default(),
				dies, seed, opts, bad, nil); err == nil {
				t.Fatalf("StartDie %d with prior %+v accepted for %d dies", bad.StartDie, bad.Prior, dies)
			}
		}
	})
}

// resultText renders a die's result, solution included, so distinct float
// bits render distinctly.
func resultText(r *TuneResult) string {
	c := *r
	c.Solution = nil
	s := fmt.Sprintf("%+v", c)
	if r.Solution != nil {
		s += fmt.Sprintf(" %+v", *r.Solution)
	}
	return s
}
