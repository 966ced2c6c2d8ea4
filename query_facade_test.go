package podium

import (
	"slices"
	"strings"
	"testing"

	"podium/internal/profile"
	"podium/internal/synth"
)

func TestSelectQueryPlain(t *testing.T) {
	p := paperPodium(t)
	sel, err := p.SelectQuery(`SELECT 2 USERS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Names) != 2 || sel.Names[0] != "Alice" || sel.Names[1] != "Eve" {
		t.Fatalf("selected %v", sel.Names)
	}
	if sel.Score != 17 {
		t.Fatalf("score = %v", sel.Score)
	}
}

func TestSelectQueryExample62(t *testing.T) {
	p := paperPodium(t)
	sel, err := p.SelectQuery(`SELECT 2 USERS
		WHERE HAS "avgRating Mexican"
		DIVERSIFY BY "livesIn Tokyo", "livesIn NYC", "livesIn Bali", "livesIn Paris"`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Names[0] != "Alice" || sel.Names[1] != "Eve" {
		t.Fatalf("selected %v", sel.Names)
	}
	if sel.PriorityScore != 3 || sel.StandardScore != 14 {
		t.Fatalf("tier scores %v/%v, want 3/14", sel.PriorityScore, sel.StandardScore)
	}
}

func TestSelectQueryWeightsOverride(t *testing.T) {
	p := paperPodium(t) // built with the default LBS
	sel, err := p.SelectQuery(`SELECT 2 USERS WEIGHTS IDEN`)
	if err != nil {
		t.Fatal(err)
	}
	// Iden selects {Alice, Bob} (Example 3.8).
	if sel.Names[0] != "Alice" || sel.Names[1] != "Bob" {
		t.Fatalf("Iden query selected %v", sel.Names)
	}
}

func TestSelectQueryBucketMismatch(t *testing.T) {
	p := paperPodium(t)
	_, err := p.SelectQuery(`SELECT 2 USERS BUCKETS 5`)
	if err == nil || !strings.Contains(err.Error(), "ExecuteQuery") {
		t.Fatalf("bucket mismatch error = %v", err)
	}
	if _, err := p.SelectQuery(`SELECT 2 USERS BUCKETS 3`); err != nil {
		t.Fatalf("matching bucket count rejected: %v", err)
	}
}

func TestSelectQueryErrors(t *testing.T) {
	p := paperPodium(t)
	for _, src := range []string{
		`garbage`,
		`SELECT 2 USERS WHERE HAS "no such property"`,
		`SELECT 2 USERS WHERE "avgRating Mexican" IN high AND "avgRating Mexican" NOT IN high`,
	} {
		if _, err := p.SelectQuery(src); err == nil {
			t.Errorf("query %q accepted", src)
		}
	}
}

func TestExecuteQueryHonorsBuckets(t *testing.T) {
	repo := profile.PaperExample()
	sel, err := ExecuteQuery(repo, `SELECT 2 USERS BUCKETS 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Users) != 2 {
		t.Fatalf("selected %v", sel.Users)
	}
}

func TestExecuteQueryParseError(t *testing.T) {
	if _, err := ExecuteQuery(profile.PaperExample(), `SELECT`); err == nil {
		t.Fatal("bad query accepted")
	}
}

// TestSelectQueryRunsConfiguredRule: a feedback-free query selects under the
// configured rule — Select's panel — and a query with feedback under a
// non-default rule fails with SelectCustom's error instead of silently
// running coverage.
func TestSelectQueryRunsConfiguredRule(t *testing.T) {
	repo := synth.Generate(synth.ScaleLike(2000)).Repo
	prop := repo.Catalog().Labels()[0]
	var coverage []UserID
	for _, name := range RuleNames() {
		p, err := New(repo, WithRule(name))
		if err != nil {
			t.Fatal(err)
		}
		sel, err := p.Select(8)
		if err != nil {
			t.Fatal(err)
		}
		q, err := p.SelectQuery("SELECT 8 USERS")
		if err != nil {
			t.Fatalf("rule %s: %v", name, err)
		}
		if !slices.Equal(sel.Users, q.Users) {
			t.Fatalf("rule %s: SelectQuery selected %v, Select %v", name, q.Users, sel.Users)
		}
		if name == "coverage" {
			coverage = sel.Users
		} else if slices.Equal(sel.Users, coverage) {
			t.Fatalf("rule %s selects the coverage panel on this instance; the test cannot tell them apart", name)
		}

		_, qerr := p.SelectQuery(`SELECT 8 USERS DIVERSIFY BY "` + prop + `"`)
		_, cerr := p.SelectCustom(8, Feedback{Priority: p.GroupsOfProperty(prop)})
		switch {
		case name == "coverage":
			if qerr != nil || cerr != nil {
				t.Fatalf("coverage feedback query: %v / %v", qerr, cerr)
			}
		case qerr == nil || cerr == nil || qerr.Error() != cerr.Error():
			t.Fatalf("rule %s feedback query error %v, SelectCustom error %v", name, qerr, cerr)
		}
	}
}
