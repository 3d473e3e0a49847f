// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per figure, run at reduced scale so the
// suite stays tractable — use cmd/blusim for paper-scale runs), plus
// micro-benchmarks of the core algorithms.
//
// Run with:
//
//	go test -bench=. -benchmem
package blu_test

import (
	"fmt"
	"testing"

	"blu"
	"blu/internal/blueprint"
	"blu/internal/experiments"
	"blu/internal/joint"
	"blu/internal/mcmc"
	"blu/internal/rng"
)

// benchFigure runs one experiment harness per benchmark iteration.
func benchFigure(b *testing.B, id string, scale float64) {
	b.Helper()
	runner := experiments.Registry()[id]
	if runner == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := runner(experiments.Options{Seed: uint64(i + 1), Scale: scale})
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig04a(b *testing.B) { benchFigure(b, "fig4a", 0.1) }
func BenchmarkFig04b(b *testing.B) { benchFigure(b, "fig4b", 0.1) }
func BenchmarkFig04c(b *testing.B) { benchFigure(b, "fig4c", 0.1) }
func BenchmarkFig10(b *testing.B)  { benchFigure(b, "fig10", 0.05) }
func BenchmarkFig11(b *testing.B)  { benchFigure(b, "fig11", 0.05) }
func BenchmarkFig12(b *testing.B)  { benchFigure(b, "fig12", 0.05) }
func BenchmarkFig13(b *testing.B)  { benchFigure(b, "fig13", 0.05) }
func BenchmarkFig14a(b *testing.B) { benchFigure(b, "fig14a", 0.05) }
func BenchmarkFig14b(b *testing.B) { benchFigure(b, "fig14b", 0.05) }
func BenchmarkFig15(b *testing.B)  { benchFigure(b, "fig15", 0.05) }
func BenchmarkFig16(b *testing.B)  { benchFigure(b, "fig16", 0.05) }
func BenchmarkFig17(b *testing.B)  { benchFigure(b, "fig17", 0.05) }
func BenchmarkFig18(b *testing.B)  { benchFigure(b, "fig18", 0.05) }

func BenchmarkMeasurementOverhead(b *testing.B) { benchFigure(b, "overhead", 1) }
func BenchmarkAblationInference(b *testing.B)   { benchFigure(b, "ablation", 0.15) }
func BenchmarkDLAccessAware(b *testing.B)       { benchFigure(b, "dl", 0.1) }
func BenchmarkSkewedTriples(b *testing.B)       { benchFigure(b, "skewed", 0.15) }
func BenchmarkFairness(b *testing.B)            { benchFigure(b, "fairness", 0.1) }
func BenchmarkFractionalImpact(b *testing.B)    { benchFigure(b, "fractional", 0.2) }

// BenchmarkInfer measures the deterministic topology inference on exact
// measurements as the cell size grows, across parallelism settings.
// P=1 is the sequential baseline, P=0 uses every core; the determinism
// tests guarantee all settings return the identical topology, so the
// ratio between the P lines is pure wall-clock speedup.
func BenchmarkInfer(b *testing.B) {
	for _, n := range []int{8, 16, 24} {
		truth := randomTopo(n, n+n/2, 7)
		meas := truth.Measure()
		for _, par := range []int{1, 4, 0} {
			label := fmt.Sprintf("N=%d/P=%d", n, par)
			if par == 0 {
				label = fmt.Sprintf("N=%d/P=max", n)
			}
			b.Run(label, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: uint64(i), Parallelism: par}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkInferMCMC is the Bayesian baseline for the same instance
// sizes (the Section 3.4 ablation), including the 4-chain configuration
// sequential vs parallel.
func BenchmarkInferMCMC(b *testing.B) {
	for _, n := range []int{8, 16} {
		truth := randomTopo(n, n+n/2, 7)
		meas := truth.Measure()
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mcmc.Infer(meas, mcmc.Options{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, par := range []int{1, 4} {
			b.Run(fmt.Sprintf("N=%d/Chains=4/P=%d", n, par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := mcmc.Infer(meas, mcmc.Options{Seed: uint64(i), Chains: 4, Parallelism: par}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWarmStart measures the §3.7 refresh economics: the same
// drifted instance solved cold (full multi-start fan-out) and solved
// warm from the pre-drift blueprint, where one repair chain probes the
// seed and the fan-out is skipped once it converges. The ratio of the
// two lines is the refresh discount session-keyed infers ride on. The
// drift exceeds the solver tolerance, so the repair must actually move:
// a verbatim warm hit would measure only the residual check.
func BenchmarkWarmStart(b *testing.B) {
	prev := randomTopo(12, 6, 7)
	drifted := &blueprint.Topology{N: prev.N, HTs: append([]blueprint.HiddenTerminal(nil), prev.HTs...)}
	for k := range drifted.HTs {
		drifted.HTs[k].Q += 0.03
	}
	meas := drifted.Measure()
	for _, tc := range []struct {
		name string
		warm *blueprint.Topology
	}{{"Cold", nil}, {"Warm", prev}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: 21, WarmStart: tc.warm}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJointProb measures one higher-order joint-distribution query
// via recursive conditioning (Section 3.6), uncached and cached.
func BenchmarkJointProb(b *testing.B) {
	topo := randomTopo(24, 30, 3)
	clear := blueprint.NewClientSet(0, 5, 9)
	blocked := blueprint.NewClientSet(2, 7, 11, 13)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			calc := joint.NewCalculator(topo)
			_ = calc.Prob(clear, blocked)
		}
	})
	b.Run("warm", func(b *testing.B) {
		calc := joint.NewCalculator(topo)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = calc.Prob(clear, blocked)
		}
	})
}

// BenchmarkSpeculativeSchedule measures one full subframe scheduling
// decision of BLU's speculative scheduler at the Fig 15 working point.
func BenchmarkSpeculativeSchedule(b *testing.B) {
	for _, m := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			cell, err := blu.NewCell(blu.CellConfig{
				Scenario:  blu.NewTestbedScenario(16, 24, 5),
				M:         m,
				Subframes: 100,
				Seed:      9,
			})
			if err != nil {
				b.Fatal(err)
			}
			spec, err := blu.NewSpeculative(cell.Env(), blu.NewCalculator(cell.GroundTruth()))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = spec.Schedule(i % 100)
			}
		})
	}
}

// BenchmarkSchedule measures one full subframe scheduling decision for
// each of the paper's three schedulers on the same Fig-15 working-point
// cell. With -benchmem it exposes the steady-state allocation profile
// of the kernels (scratch reuse, flat caches, per-call arena); the
// AllocsPerRun ceiling tests in internal/sched gate that profile.
func BenchmarkSchedule(b *testing.B) {
	const subframes = 100
	cell, err := blu.NewCell(blu.CellConfig{
		Scenario:  blu.NewTestbedScenario(16, 24, 5),
		M:         2,
		Subframes: subframes,
		Seed:      9,
	})
	if err != nil {
		b.Fatal(err)
	}
	env := cell.Env()
	calc := blu.NewCalculator(cell.GroundTruth())
	pf, err := blu.NewPF(env)
	if err != nil {
		b.Fatal(err)
	}
	aa, err := blu.NewAccessAware(env, calc)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := blu.NewSpeculative(env, calc)
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range []struct {
		name string
		s    blu.Scheduler
	}{
		{"PF", pf},
		{"AA", aa},
		{"BLU", spec},
	} {
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = sc.s.Schedule(i % subframes)
			}
		})
	}
}

// BenchmarkMeasurementPlan measures Algorithm 1 planning for the
// paper's N=20, K=8, T=50 anchor case.
func BenchmarkMeasurementPlan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err := blu.BuildMeasurementPlan(blu.MeasurementPlanOptions{N: 20, K: 8, T: 50})
		if err != nil {
			b.Fatal(err)
		}
		if plan.TMax() == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkCellConstruction measures building a full simulated cell
// (WiFi activity + channel + access masks) for a 10-second horizon.
func BenchmarkCellConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := blu.NewCell(blu.CellConfig{
			Scenario:  blu.NewTestbedScenario(8, 12, uint64(i)),
			Subframes: 10000,
			Seed:      uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func randomTopo(n, h int, seed uint64) *blueprint.Topology {
	r := rng.New(seed)
	topo := &blueprint.Topology{N: n}
	for k := 0; k < h; k++ {
		var set blueprint.ClientSet
		for i := 0; i < n; i++ {
			if r.Bool(0.25) {
				set = set.Add(i)
			}
		}
		if set.Empty() {
			set = set.Add(r.Intn(n))
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{
			Q:       0.1 + 0.4*r.Float64(),
			Clients: set,
		})
	}
	return topo.Normalize()
}
