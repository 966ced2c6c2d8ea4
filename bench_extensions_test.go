package podium

// Benchmarks for the extension subsystems beyond the paper's figures:
// randomized selection (E11), the extended baseline comparison (E12), the
// binary codec, incremental index maintenance, parallel grouping and the
// declarative query layer.

import (
	"bytes"
	"fmt"
	"testing"

	"podium/internal/codec"
	"podium/internal/experiments"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/query"
)

// E11 — randomized selection (the paper's §10 future work).
func BenchmarkNoiseAblation(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunNoiseAblation(experiments.NoiseConfig{
			Dataset: ta, Seed: 13, Budget: benchBudget, Repetitions: 5,
		})
	}
	logTable(b, tab)
}

// E12 — extended baselines: stratified sampling and max-min distance.
func BenchmarkExtendedIntrinsic(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunExtendedIntrinsic(experiments.IntrinsicConfig{Dataset: ta, Seed: 7, Budget: benchBudget})
	}
	logTable(b, tab)
}

// E14 — hold-out opinion evaluation (the paper's §8.2 protocol).
func BenchmarkHoldOut(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunHoldOut(experiments.HoldOutConfig{
			Dataset: ta, Seed: 7, Budget: benchBudget, Destinations: 10,
		})
	}
	logTable(b, tab)
}

// E15 — budget sweep (§8.4's "as B increases" observation).
func BenchmarkBudgetSweep(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunBudgetSweep(experiments.BudgetSweepConfig{Dataset: ta, Seed: 7, Budgets: []int{2, 8, 32}})
	}
	logTable(b, tab)
}

// E16 — diversity transfer: corr(intrinsic diversity, opinion diversity).
func BenchmarkDiversityTransfer(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.RunDiversityTransfer(experiments.TransferConfig{Dataset: ta, Seed: 21, Samples: 30})
	}
	logTable(b, tab)
}

// Binary codec throughput, versus the JSON wire format.
func BenchmarkCodecWriteBinary(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := codec.WriteRepository(&buf, ta.Repo); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
}

func BenchmarkCodecReadBinary(b *testing.B) {
	ta, _ := benchDatasets()
	var buf bytes.Buffer
	if err := codec.WriteRepository(&buf, ta.Repo); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.ReadRepository(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecWriteJSON(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ta.Repo.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
}

// Incremental maintenance versus full rebuild: indexing one new user.
func BenchmarkIncrementalIndexUser(b *testing.B) {
	ta, _ := benchDatasets()
	ix := groups.Build(ta.Repo, groups.Config{K: 3})
	// One template user's profile to replay.
	var labels []string
	var scores []float64
	ta.Repo.Profile(0).Each(func(id profile.PropertyID, s float64) {
		labels = append(labels, ta.Repo.Catalog().Label(id))
		scores = append(scores, s)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := ta.Repo.AddUser(fmt.Sprintf("bench-%d", i))
		for j, l := range labels {
			ta.Repo.MustSetScore(u, l, scores[j])
		}
		if _, err := ix.IndexUser(u); err != nil {
			b.Fatal(err)
		}
	}
}

// Full grouping rebuild, for contrast with IndexUser.
func BenchmarkFullRebuild(b *testing.B) {
	ta, _ := benchDatasets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups.Build(ta.Repo, groups.Config{K: 3})
	}
}

// Query layer: parse cost and end-to-end query selection.
func BenchmarkQueryParse(b *testing.B) {
	src := `SELECT 8 USERS WEIGHTS LBS COVERAGE SINGLE
		WHERE HAS "avgRating Mexican" AND "livesIn city-00" NOT IN true
		DIVERSIFY BY "visitFreq Mexican", "visitFreq Japanese"
		IGNORE "enthusiasm Food"`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuerySelect(b *testing.B) {
	ta, _ := benchDatasets()
	p, err := New(ta.Repo)
	if err != nil {
		b.Fatal(err)
	}
	src := `SELECT 8 USERS WHERE HAS "avgRating Mexican" DIVERSIFY BY "visitFreq Mexican"`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SelectQuery(src); err != nil {
			b.Fatal(err)
		}
	}
}
