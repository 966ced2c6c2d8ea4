package experiments

import (
	"testing"
	"time"
)

func TestObsSuiteShapes(t *testing.T) {
	tab, rep, err := RunObsSuite(ObsConfig{
		Seed: 7, Users: 300, Props: 400, Clients: 2,
		Duration:    150 * time.Millisecond,
		SelectIters: 120, Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("table rows = %d, want 2", len(tab.Rows))
	}
	if rep.Suite != "obs" || rep.Users != 300 || rep.Trials != 2 {
		t.Fatalf("report header = %+v", rep)
	}
	for name, st := range map[string]ObsRunStats{"enabled": rep.Enabled, "disabled": rep.Disabled} {
		if st.SelectSamples == 0 || st.SelectMeanMs <= 0 {
			t.Fatalf("%s mode measured no selects: %+v", name, st)
		}
		if st.ReadOps == 0 || st.ReadQPS <= 0 {
			t.Fatalf("%s mode drove no reads: %+v", name, st)
		}
	}
	// The < 2% acceptance gate belongs to the full-size bench run; a short
	// noisy smoke run only has to stay within the same order of magnitude.
	if rep.MaxOverheadFrac > 0.5 {
		t.Fatalf("instrumentation overhead %.1f%% on the smoke run; the wrapper is doing real work per request", rep.MaxOverheadFrac*100)
	}
	// The instrumented runs must actually be visible on the scrape.
	if rep.MetricFamilies < 10 {
		t.Fatalf("only %d metric families exposed after the run", rep.MetricFamilies)
	}
}
