package client

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/obs"
	"podium/internal/profile"
	"podium/internal/server"
	"podium/internal/synth"
)

// selectBody serves one select through s's handler and returns the body.
func selectBody(t testing.TB, s *server.Server, path, req string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(req)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: HTTP %d: %s", path, req, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// coordinatorExtras are the extra fields a shard coordinator renders.
var coordinatorExtras = map[string]interface{}{
	"degraded": true,
	"shards": []ShardReport{
		{URL: "http://127.0.0.1:7001", Epoch: 3, OK: true, Winners: 4},
		{URL: "http://127.0.0.1:7002", Error: `dial tcp: "refused" & <reset>`},
	},
	"trace": &obs.SpanJSON{Name: "coordinator.select", Ms: 1.5},
}

// oddRepo is a repository whose names and labels need JSON escapes or are
// not ASCII, and whose last user is in no group.
func oddRepo() (*profile.Repository, profile.UserID) {
	b := profile.NewBuilder()
	labels := []string{`R&B <live>`, `say "hi"`, `back\slash`, `café`, "tab\there", `plain`}
	for u := 0; u < 30; u++ {
		b.AddUser(fmt.Sprintf("user %d & <%c> é", u, 'a'+u%26))
		for j, l := range labels {
			if (u+j)%3 != 0 {
				b.MustAdd(b.Intern(l), float64((u*7+j*3)%10)/10)
			}
		}
	}
	loner := b.AddUser("loner")
	return b.Build(), loner
}

// testBody is one select body and whether the direct reader must take it.
type testBody struct {
	name   string
	data   []byte
	direct bool
}

// serverBodies renders select bodies from s: every rule at every budget,
// weights and coverage cycling so that each rule meets Iden and LBS, Single
// and Prop; feedback with tier scores and top_k; ?pretty=1; the query
// endpoint; an empty panel; and traced and coordinator bodies, which the
// direct reader leaves to json.Unmarshal.
func serverBodies(t testing.TB, s *server.Server, budgets []int) []testBody {
	t.Helper()
	var out []testBody
	add := func(name string, data []byte, direct bool) {
		out = append(out, testBody{name, data, direct})
	}
	for _, rl := range core.Rules() {
		for _, b := range budgets {
			req := fmt.Sprintf(`{"budget":%d,"weights":%q,"coverage":%q,"rule":%q}`,
				b, []string{"iden", "lbs"}[b%2], []string{"single", "prop"}[b/2%2], rl.Name())
			add(req, selectBody(t, s, "/api/v1/select", req), true)
		}
	}
	for _, req := range []string{
		`{"budget":5,"top_k":3,"feedback":{"must_not":[7],"priority":[1,3,4]}}`,
		`{"budget":6,"coverage":"prop","top_k":50,"feedback":{"must_have":[2],"standard":[5,6,8,9],"standard_explicit":true}}`,
		`{"budget":8,"rule":"harmonic","top_k":1}`,
	} {
		add(req, selectBody(t, s, "/api/v1/select", req), true)
		add("pretty "+req, selectBody(t, s, "/api/v1/select?pretty=1", req), true)
		add("traced "+req, selectBody(t, s, "/api/v1/select?trace=1", req), false)
	}
	q := `{"query":"SELECT 4 USERS WEIGHTS IDEN COVERAGE PROP","top_k":5}`
	add(q, selectBody(t, s, "/api/v1/query", q), true)

	sn := s.Snapshot()
	res, err := core.GreedyRule(sn.Instance(groups.WeightLBS, groups.CoverSingle, 4), 4, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*core.Result{"panel": res, "empty panel": {}} {
		data, err := sn.RenderSelection(groups.WeightLBS, groups.CoverSingle, 4, 200, nil, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		add("render "+name, data, true)
		if data, err = sn.RenderSelection(groups.WeightLBS, groups.CoverSingle, 4, 200, core.MustRule("maxcov"), r, coordinatorExtras); err != nil {
			t.Fatal(err)
		}
		add("coordinator "+name, data, false)
	}
	return out
}

// escapedBodies renders serverBodies on oddRepo, plus EBS selects, which
// need its small index, and a panel holding its user in no group.
func escapedBodies(t testing.TB) []testBody {
	t.Helper()
	repo, loner := oddRepo()
	s := server.New("odd", repo, groups.Config{K: 3}, nil)
	out := serverBodies(t, s, []int{1, 2, 3, 4})
	for _, want := range []string{`\u0026`, `\u003c`, `\"`, `\\`, `\t`, `é`} {
		if !strings.Contains(string(out[0].data), want) {
			t.Fatalf("body holds no %s: %s", want, out[0].data)
		}
	}
	for _, req := range []string{`{"budget":4,"weights":"ebs"}`, `{"budget":3,"weights":"ebs","coverage":"prop"}`} {
		out = append(out, testBody{req, selectBody(t, s, "/api/v1/select", req), true},
			testBody{"pretty " + req, selectBody(t, s, "/api/v1/select?pretty=1", req), true})
	}
	data, err := s.Snapshot().RenderSelection(groups.WeightIden, groups.CoverSingle, 2, 200, nil,
		&core.Result{Users: []profile.UserID{loner, 0}, Marginals: []float64{0, 1.25}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"top_groups":null`) {
		t.Fatalf("no user in no group: %s", data)
	}
	return append(out, testBody{"user in no group", data, true})
}

// floatBits lists the bits of every float in s, in field order.
func floatBits(s Selection) []uint64 {
	bits := []uint64{math.Float64bits(s.Score), math.Float64bits(s.PriorityScore), math.Float64bits(s.StandardScore)}
	for _, u := range s.Users {
		bits = append(bits, math.Float64bits(u.Marginal))
	}
	for _, g := range s.Groups {
		bits = append(bits, math.Float64bits(g.Weight))
	}
	return bits
}

// sameSelection is deep equality with floats compared by their bits.
func sameSelection(a, b Selection) bool {
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(floatBits(a), floatBits(b))
}

// staleSelection is a decode target left full by an earlier decode, so a
// decode that fails to replace all of it shows.
func staleSelection() Selection {
	return Selection{
		Users:         []SelectedUser{{ID: 9, Name: "stale", Marginal: 2, TopGroups: []string{"g"}}},
		Score:         7,
		Rule:          "harmonic",
		TopKCovered:   1,
		TopK:          3,
		PriorityScore: 4,
		StandardScore: 3,
		Groups:        []GroupCoverage{{ID: 4, Label: "g", Weight: 2, Required: 1, Actual: 1, Covered: true}},
		Degraded:      true,
		Shards:        []ShardReport{{URL: "http://stale", OK: true}},
	}
}

// checkDecode decodes data both ways and reports any difference.
func checkDecode(t *testing.T, name string, data []byte) {
	t.Helper()
	var want Selection
	wantErr := json.Unmarshal(data, &want)
	got := staleSelection()
	gotErr := decodeSelection(data, &got)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, json.Unmarshal %v", name, gotErr, wantErr)
	}
	if wantErr == nil && !sameSelection(got, want) {
		t.Fatalf("%s: decoded\n%#v\njson.Unmarshal\n%#v", name, got, want)
	}
}

// TestDecodeSelectionMatchesJSON: every body the server renders decodes to
// json.Unmarshal's value, floats bit for bit, and the direct reader takes
// every single-node body, compact or pretty.
func TestDecodeSelectionMatchesJSON(t *testing.T) {
	budgets := make([]int, 16)
	for i := range budgets {
		budgets[i] = i + 1
	}
	s := server.New("decode", synth.Generate(synth.ScaleLike(60)).Repo, groups.Config{K: 3}, nil)
	for _, b := range append(serverBodies(t, s, budgets), escapedBodies(t)...) {
		checkDecode(t, b.name, b.data)
		var sel Selection
		d := selectionDecoder{data: b.data}
		if took := d.selection(&sel); took != b.direct {
			t.Errorf("%s: direct reader took it: %v, want %v", b.name, took, b.direct)
		}
	}
}

// edgeCases are inputs around the single-node shape: the ones the direct
// reader must leave to json.Unmarshal, and near them ones it takes.
var edgeCases = []string{
	`{"users":[{"id":1,"name":"a","marginal":2,"top_groups":["x"]}],"score":2,"top_k_covered":0,"top_k":1,"groups":[]}`,
	// Unknown keys, and keys that differ from a field's name only in case.
	`{"users":null,"extra":1,"score":1}`,
	`{"users":[{"id":1,"name":"a","extra":[1,{}]}]}`,
	`{"Score":2,"top_k":1}`,
	`{"users":[{"ID":3,"Name":"b"}]}`,
	`{"groups":[{"id":1,"Label":"x","covered":true}]}`,
	`{"degraded":true,"shards":[{"url":"u","ok":true}],"score":1}`,
	`{"score":1}`,
	// Duplicate keys.
	`{"score":1,"score":2}`,
	`{"users":[{"id":1,"name":"a","marginal":2}],"users":[{"id":2}]}`,
	`{"groups":[{"id":1,"label":"a","weight":2}],"groups":[{"id":2}]}`,
	`{"users":[{"id":1,"id":2}]}`,
	`{"users":[{"top_groups":["a","b"],"top_groups":["c"]}]}`,
	`{"groups":[{"covered":true,"covered":false}]}`,
	// Integers strconv.ParseInt rejects, and floats strconv.ParseFloat rejects.
	`{"top_k":1.0}`,
	`{"top_k":1e2}`,
	`{"top_k":9223372036854775808}`,
	`{"top_k":-9223372036854775809}`,
	`{"top_k":9223372036854775807,"top_k_covered":-9223372036854775808}`,
	`{"groups":[{"actual":2.5}]}`,
	`{"score":1e400}`,
	`{"score":-1e400}`,
	`{"score":1e-400,"priority_score":-0,"standard_score":0.1e1}`,
	`{"users":[{"marginal":1E+308}]}`,
	// Invalid numbers.
	`{"score":01}`,
	`{"score":+1}`,
	`{"score":.5}`,
	`{"score":1.}`,
	`{"score":1e}`,
	`{"score":-}`,
	`{"score":NaN}`,
	`{"score":"1"}`,
	// Invalid UTF-8, control bytes and escapes.
	"{\"rule\":\"\xff\"}",
	"{\"users\":[{\"name\":\"caf\xc3\"}]}",
	"{\"rule\":\"a\x01b\"}",
	"{\"rule\":\"tab\tin\"}",
	`{"rule":"&<> \"q\" \\ \/ \b\f\n\r\t 😀 \ud800"}`,
	`{"rule":"\x"}`,
	`{"rule":"\u12"}`,
	`{"rule":"\`,
	`{"rule":"open`,
	// null on scalar fields, and on and inside slices.
	`{"score":null}`,
	`{"rule":null}`,
	`{"top_k":null}`,
	`{"users":[{"id":null,"name":null,"marginal":null,"top_groups":null}]}`,
	`{"users":[{"top_groups":["a",null]}]}`,
	`{"groups":[{"label":null,"covered":null}]}`,
	`{"users":null,"groups":null}`,
	`{"users":[],"groups":[]}`,
	`{"users":[null],"groups":[null]}`,
	`null`,
	// Trailing data, and the wrong shapes.
	`{"score":1}x`,
	`{"score":1}{}`,
	"{\"score\":1} \n\t\r",
	" \n{ \"score\" : 1 , \"users\" : [ ] } ",
	`{"score":1,}`,
	`{"users":[1,]}`,
	`{"users":[,]}`,
	`{"score" 1}`,
	`{"score":1 "top_k":2}`,
	`{"covered":true}`,
	`{"groups":[{"covered":tru}]}`,
	`{"groups":[{"covered":1}]}`,
	`{"users":{}}`,
	`[]`,
	`"x"`,
	``,
	`{`,
	"\xef\xbb\xbf{}",
	`{}`,
}

// TestDecodeSelectionEdgeCases: every edge input decodes, or fails, exactly
// as json.Unmarshal does.
func TestDecodeSelectionEdgeCases(t *testing.T) {
	for _, c := range edgeCases {
		checkDecode(t, c, []byte(c))
	}
}

// FuzzDecodeSelection: on any input, decodeSelection and json.Unmarshal
// agree on the error, and on the value when both succeed.
func FuzzDecodeSelection(f *testing.F) {
	for _, b := range escapedBodies(f) {
		f.Add(b.data)
	}
	for _, c := range edgeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, "fuzz input", data)
	})
}
