// Corpus for the flow-pool capture rules, written against the real
// repro/internal/flow generics and the real worker-scoped types.
package a

import (
	"context"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sta"
	"repro/internal/variation"
)

func capturedRetimer(ctx context.Context, rt *variation.Retimer, dies []*variation.Die) {
	flow.Map(ctx, 0, len(dies), func(ctx context.Context, i int) (float64, error) {
		return rt.TimeLight(dies[i]) // want `closure passed to flow\.Map captures rt \(repro/internal/variation\.Retimer\)`
	})
}

func capturedTiming(ctx context.Context, buf *sta.Timing, an *sta.Analyzer, n int) {
	flow.MapAll(ctx, 0, n, func(ctx context.Context, i int) (float64, error) {
		tm, err := an.Run(nil, buf) // want `closure passed to flow\.MapAll captures buf \(repro/internal/sta\.Timing\)`
		if err != nil {
			return 0, err
		}
		return tm.DcritPS, nil
	})
}

func capturedInstance(ctx context.Context, al *core.Allocator, inst *core.Instance, n int) {
	flow.Map(ctx, 0, n, func(ctx context.Context, i int) (int, error) {
		_, got, err := al.SolveAt(core.Options{}, nil, inst) // want `closure passed to flow\.Map captures inst \(repro/internal/core\.Instance\)`
		if err != nil {
			return 0, err
		}
		_ = got
		return 0, nil
	})
}

type shared struct {
	rt *variation.Retimer
}

func capturedThroughStruct(ctx context.Context, s *shared, dies []*variation.Die) {
	flow.Map(ctx, 0, len(dies), func(ctx context.Context, i int) (float64, error) {
		return s.rt.TimeLight(dies[i]) // want `closure passed to flow\.Map reaches rt \(repro/internal/variation\.Retimer\) through captured s`
	})
}

func sharedStateViaMapWith(ctx context.Context, tn *variation.Tuner, n int) {
	flow.MapWith(ctx, 0, n,
		func() int { return 0 },
		func(ctx context.Context, s int, i int) (int, error) {
			_ = tn // want `closure passed to flow\.MapWith captures tn \(repro/internal/variation\.Tuner\)`
			return s, nil
		})
}

func factoryShares(ctx context.Context, rt *variation.Retimer, n int) {
	flow.MapWith(ctx, 0, n,
		func() *variation.Retimer {
			return rt // want `flow\.MapWith factory returns captured rt \(repro/internal/variation\.Retimer\)`
		},
		func(ctx context.Context, s *variation.Retimer, i int) (int, error) {
			return 0, nil
		})
}

// The sanctioned shapes.

// viaFactory: per-worker state built in the factory from shared immutable
// bases, threaded through the state parameter.
func viaFactory(ctx context.Context, an *sta.Analyzer, nom *sta.Timing, dies []*variation.Die) {
	flow.MapWith(ctx, 0, len(dies),
		func() *variation.Retimer { return variation.NewRetimer(an) },
		func(ctx context.Context, rt *variation.Retimer, i int) (float64, error) {
			dc, err := rt.TimeLight(dies[i])
			if err != nil {
				return 0, err
			}
			// nom (*sta.Timing) is the read-only nominal corner: the one
			// worker-scoped type MapWith bodies may capture.
			return dc - nom.DcritPS, nil
		})
}

// cloningFactory: capturing a base Sampler to Clone is the idiom; only
// returning it verbatim would share state.
func cloningFactory(ctx context.Context, smp *variation.Sampler, n int) {
	flow.MapWith(ctx, 0, n,
		func() *variation.Sampler { return smp.Clone() },
		func(ctx context.Context, s *variation.Sampler, i int) (int, error) {
			return 0, nil
		})
}

func suppressedCapture(ctx context.Context, rt *variation.Retimer, n int) {
	flow.Map(ctx, 1, n, func(ctx context.Context, i int) (int, error) {
		//lint:allow workerstate single-worker pool: workers=1 serializes every call on one goroutine
		_ = rt
		return 0, nil
	})
}
