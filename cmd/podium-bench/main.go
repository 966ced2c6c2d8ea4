// podium-bench regenerates the paper's evaluation figures (Section 8) on the
// synthetic datasets. Each subcommand prints the rows/series of one figure;
// `all` runs everything. The -scale flag trades fidelity for speed: it sets
// the user counts of the generated datasets (paper scale is 4475 TripAdvisor
// users and 60000 Yelp users; the defaults are laptop-friendly).
//
// Usage:
//
//	podium-bench fig3a          # TripAdvisor intrinsic diversity
//	podium-bench fig3b          # TripAdvisor opinion diversity
//	podium-bench fig3c          # Yelp intrinsic diversity
//	podium-bench fig3d          # Yelp opinion diversity
//	podium-bench fig4           # customization effect
//	podium-bench fig5           # scalability in |U|
//	podium-bench fig6           # scalability in profile size
//	podium-bench approx         # greedy vs optimal ratio (§8.4)
//	podium-bench ablate         # design-choice ablations (DESIGN.md E10)
//	podium-bench extra          # extended baselines: stratified, max-min distance
//	podium-bench noise          # randomized selection (future work, §10)
//	podium-bench engine         # selection-engine timings → BENCH_selection.json
//	podium-bench campaign       # procurement campaigns → BENCH_campaign.json
//	podium-bench faults         # hardened serving under faults → BENCH_faults.json
//	podium-bench obs            # observability overhead → BENCH_obs.json
//	podium-bench dist           # sharded GreeDi selection vs exact → BENCH_dist.json
//	podium-bench rules          # selection rules: latency + trade-off → BENCH_rules.json
//	podium-bench -suite engine  # flag form of a suite
//	podium-bench all -scale 800
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"podium/internal/experiments"
	"podium/internal/synth"
	"podium/internal/viz"
)

func main() {
	fs := flag.NewFlagSet("podium-bench", flag.ExitOnError)
	scale := fs.Int("scale", 600, "dataset user count (0 = paper scale)")
	seed := fs.Int64("seed", 7, "experiment seed")
	budget := fs.Int("budget", 8, "selection budget B")
	raw := fs.Bool("raw", false, "print raw metric values instead of normalized")
	csvOut := fs.Bool("csv", false, "emit CSV instead of aligned tables (for plotting)")
	svgDir := fs.String("svgdir", "", "also write each table as an SVG chart into this directory")
	suite := fs.String("suite", "", "suite to run (alternative to the positional subcommand)")
	out := fs.String("out", "", "JSON report path (default: the suite's BENCH_<name>.json, BENCH_selection.json for engine)")
	par := fs.Int("parallelism", runtime.NumCPU(), "engine suite: worker count of the parallel variant")
	clients := fs.Int("clients", 8, "obs and faults suites: concurrent closed-loop clients")
	writePct := fs.Int("writes", 10, "faults suite: percentage of mutating operations")
	duration := fs.Duration("duration", 2*time.Second, "obs and faults suites: measured run length per drive")
	workers := fs.Int("workers", 8, "campaign suite: solicitation worker-pool size")

	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Both `podium-bench engine -scale N` and `podium-bench -suite engine`
	// are accepted: a leading flag means the suite is named by -suite.
	var cmd string
	if strings.HasPrefix(os.Args[1], "-") {
		_ = fs.Parse(os.Args[1:])
		cmd = *suite
		if cmd == "" {
			usage()
			os.Exit(2)
		}
	} else {
		cmd = os.Args[1]
		_ = fs.Parse(os.Args[2:])
	}

	taUsers := *scale
	ylUsers := *scale
	if ylUsers > 0 {
		ylUsers = ylUsers * 4 / 3 // Yelp-like has more users, as in the paper
	}

	ta := func() *synth.Dataset { return synth.Generate(synth.TripAdvisorLike(taUsers)) }
	yl := func() *synth.Dataset { return synth.Generate(synth.YelpLike(ylUsers)) }

	emit := func(t *experiments.Table) {
		if *svgDir != "" {
			if err := writeSVG(*svgDir, t); err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
		}
		if *csvOut {
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
			return
		}
		t.Render(os.Stdout)
		fmt.Println()
	}
	show := func(t *experiments.Table) {
		if !*raw {
			t = t.Normalized()
		}
		emit(t)
	}
	showRaw := emit

	run := map[string]func(){
		"fig3a": func() {
			show(experiments.RunIntrinsic(experiments.IntrinsicConfig{Dataset: ta(), Seed: *seed, Budget: *budget}))
		},
		"fig3b": func() {
			show(experiments.RunOpinion(experiments.OpinionConfig{Dataset: ta(), Seed: *seed, Budget: *budget}))
		},
		"fig3c": func() {
			show(experiments.RunIntrinsic(experiments.IntrinsicConfig{Dataset: yl(), Seed: *seed, Budget: *budget}))
		},
		"fig3d": func() {
			show(experiments.RunOpinion(experiments.OpinionConfig{Dataset: yl(), Seed: *seed, Budget: *budget, IncludeUsefulness: true}))
		},
		"fig4": func() {
			showRaw(experiments.RunCustomization(experiments.CustomizationConfig{Dataset: yl(), Seed: *seed, Budget: *budget}))
		},
		"fig5": func() {
			showRaw(experiments.RunScalabilityUsers(experiments.ScalabilityConfig{Seed: *seed, Budget: *budget}))
		},
		"fig6": func() {
			showRaw(experiments.RunScalabilityProfile(experiments.ScalabilityConfig{Seed: *seed, Budget: *budget}))
		},
		"approx": func() {
			showRaw(experiments.RunApproxRatio(experiments.ApproxConfig{Seed: *seed}))
		},
		"ablate": func() {
			cfg := experiments.AblationConfig{Dataset: ta(), Budget: *budget}
			showRaw(experiments.RunBucketingAblation(cfg))
			showRaw(experiments.RunSchemeAblation(cfg))
		},
		"extra": func() {
			showRaw(experiments.RunExtendedIntrinsic(experiments.IntrinsicConfig{Dataset: ta(), Seed: *seed, Budget: *budget}))
		},
		"noise": func() {
			showRaw(experiments.RunNoiseAblation(experiments.NoiseConfig{Dataset: ta(), Seed: *seed, Budget: *budget}))
		},
		"holdout": func() {
			show(experiments.RunHoldOut(experiments.HoldOutConfig{Dataset: ta(), Seed: *seed, Budget: *budget}))
		},
		"budget": func() {
			showRaw(experiments.RunBudgetSweep(experiments.BudgetSweepConfig{Dataset: ta(), Seed: *seed}))
		},
		"transfer": func() {
			showRaw(experiments.RunDiversityTransfer(experiments.TransferConfig{Dataset: ta(), Seed: *seed, Budget: *budget}))
		},
		"engine": func() {
			tab, rep := experiments.RunEngineSuite(experiments.EngineConfig{
				Seed: *seed, Budget: *budget, Parallelism: *par,
			})
			showRaw(tab)
			path := reportPath(*out, "BENCH_selection.json")
			if err := writeReport(path, rep); err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			if rep.MinSpeedupPar > 0 {
				fmt.Printf("wrote %s (min parallel speedup %.2fx over the seed greedy)\n", path, rep.MinSpeedupPar)
			} else {
				fmt.Printf("wrote %s (one CPU: no parallel variant)\n", path)
			}
		},
		"campaign": func() {
			tab, rep, err := experiments.RunCampaignSuite(experiments.CampaignConfig{
				Seed: *seed, Budget: *budget, Users: *scale,
				Workers: *workers, Parallelism: *par,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			showRaw(tab)
			path := reportPath(*out, "BENCH_campaign.json")
			if err := writeReport(path, rep); err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (repair recovers ≥ %.0f%% of dropout coverage loss)\n", path, rep.MinRecoveredFrac*100)
		},
		"obs": func() {
			tab, rep, err := experiments.RunObsSuite(experiments.ObsConfig{
				Seed: *seed, Budget: *budget, Clients: *clients, Duration: *duration,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			showRaw(tab)
			path := reportPath(*out, "BENCH_obs.json")
			if err := writeReport(path, rep); err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (max instrumentation overhead %.2f%%; %d metric families exposed)\n",
				path, rep.MaxOverheadFrac*100, rep.MetricFamilies)
		},
		"scale": func() {
			tiers := []int{10000, 100000}
			if os.Getenv("PODIUM_SCALE_1M") == "1" {
				tiers = append(tiers, 1000000)
			}
			tab, rep, err := experiments.RunScaleSuite(experiments.ScaleConfig{
				Seed: *seed, Budget: *budget, Parallelism: *par, Tiers: tiers,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			showRaw(tab)
			path := reportPath(*out, "BENCH_scale.json")
			if err := writeReport(path, rep); err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (image loads %.0fx faster than JSON; worst select-vs-linear %.2f)\n",
				path, rep.MinImageSpeedup, rep.MaxSelectVsLinear)
		},
		"rules": func() {
			tiers := []int{10000, 100000}
			tab, rep, err := experiments.RunRulesSuite(experiments.RulesConfig{
				Seed: *seed, Budget: *budget, Parallelism: *par, Tiers: tiers,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			showRaw(tab)
			path := reportPath(*out, "BENCH_rules.json")
			if err := writeReport(path, rep); err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d rules; worst latency %.2fx of default; default coverage frac %.4f)\n",
				path, len(rep.Rules), rep.MaxVsDefault, rep.MinDefaultCoverageFrac)
		},
		"dist": func() {
			tab, rep, err := experiments.RunDistSuite(experiments.DistConfig{
				Seed: *seed, Budget: *budget, Parallelism: *par,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			showRaw(tab)
			path := reportPath(*out, "BENCH_dist.json")
			if err := writeReport(path, rep); err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (worst merge coverage %.4f of exact; worst shard-loss %.4f; best speedup %.2fx; R=2 replica-loss coverage %.4f of R=1)\n",
				path, rep.MinRatio, rep.MinDegradedRatio, rep.MaxSpeedup, rep.ReplicaLossRatio)
		},
		"faults": func() {
			tab, rep, err := experiments.RunFaultsSuite(experiments.FaultsConfig{
				Seed: *seed, Budget: *budget,
				Clients: *clients, WritePct: *writePct, Duration: *duration,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			showRaw(tab)
			path := reportPath(*out, "BENCH_faults.json")
			if err := writeReport(path, rep); err != nil {
				fmt.Fprintf(os.Stderr, "podium-bench: %v\n", err)
				os.Exit(1)
			}
			worst := rep.Sweep[len(rep.Sweep)-1]
			fmt.Printf("wrote %s (hardening costs %.1f%% read QPS; %d client errors at %.0f%% faults; %.0f%% shed at overload)\n",
				path, (1-rep.Overhead.Ratio)*100, worst.ClientErrors, worst.Rate*100, rep.Overload.ShedRate*100)
		},
	}

	if cmd == "all" {
		for _, name := range []string{"fig3a", "fig3b", "fig3c", "fig3d", "fig4", "fig5", "fig6", "approx", "ablate", "extra", "noise", "holdout", "budget", "transfer"} {
			fmt.Printf("=== %s ===\n", name)
			run[name]()
		}
		return
	}
	f, ok := run[cmd]
	if !ok {
		usage()
		os.Exit(2)
	}
	f()
}

// writeSVG renders a table as an SVG chart in dir: line charts for the
// scalability sweeps (Figures 5/6), grouped bars for everything else.
func writeSVG(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, t.Title)
	slug = strings.Trim(strings.Join(strings.FieldsFunc(slug, func(r rune) bool { return r == '-' }), "-"), "-")
	f, err := os.Create(filepath.Join(dir, slug+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasPrefix(t.Title, "Scalability") {
		return viz.Lines(f, t)
	}
	return viz.GroupedBars(f, t)
}

// reportPath resolves the -out flag against a suite's default.
func reportPath(out, def string) string {
	if out != "" {
		return out
	}
	return def
}

// writeReport serializes a suite's JSON report.
func writeReport(path string, rep interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func usage() {
	fmt.Fprintln(os.Stderr, `podium-bench <fig3a|fig3b|fig3c|fig3d|fig4|fig5|fig6|approx|ablate|extra|noise|holdout|budget|transfer|engine|campaign|faults|obs|scale|dist|rules|all> [-scale N] [-seed S] [-budget B] [-raw] [-csv] [-suite NAME] [-out FILE] [-parallelism N] [-clients N] [-writes PCT] [-duration D] [-workers N]`)
}
