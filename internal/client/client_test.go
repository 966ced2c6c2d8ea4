package client

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"podium/internal/bucketing"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/server"
)

func newPair(t *testing.T) (*Client, *httptest.Server) {
	t.Helper()
	srv := server.New("paper-example", profile.PaperExample(),
		groups.Config{Method: bucketing.Fixed{Interior: []float64{0.4, 0.65}}, K: 3},
		[]server.NamedConfig{{Name: "default", Budget: 2, Weights: "LBS", Coverage: "Single"}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return New(ts.URL, nil), ts
}

func TestClientStatus(t *testing.T) {
	c, _ := newPair(t)
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 5 || st.Groups != 16 || st.Name != "paper-example" {
		t.Fatalf("status = %+v", st)
	}
}

func TestClientGroups(t *testing.T) {
	c, _ := newPair(t)
	gs, err := c.Groups(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 4 || gs[0].Size != 3 {
		t.Fatalf("groups = %+v", gs)
	}
}

func TestClientConfigurations(t *testing.T) {
	c, _ := newPair(t)
	cs, err := c.Configurations()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].Name != "default" {
		t.Fatalf("configurations = %+v", cs)
	}
}

func TestClientSelect(t *testing.T) {
	c, _ := newPair(t)
	sel, err := c.Select(SelectRequest{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Users) != 2 || sel.Users[0].Name != "Alice" || sel.Users[1].Name != "Eve" {
		t.Fatalf("selection = %+v", sel.Users)
	}
	if sel.Score != 17 {
		t.Fatalf("score = %v", sel.Score)
	}
	if len(sel.Groups) != 16 {
		t.Fatalf("group coverage rows = %d", len(sel.Groups))
	}
}

func TestClientSelectNamedConfig(t *testing.T) {
	c, _ := newPair(t)
	sel, err := c.Select(SelectRequest{Config: "default"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Users) != 2 {
		t.Fatalf("selection = %+v", sel.Users)
	}
}

func TestClientQuery(t *testing.T) {
	c, _ := newPair(t)
	sel, err := c.Query(`SELECT 2 USERS WHERE HAS "avgRating Mexican" DIVERSIFY BY "livesIn Tokyo", "livesIn NYC", "livesIn Bali", "livesIn Paris"`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Users[0].Name != "Alice" || sel.Users[1].Name != "Eve" {
		t.Fatalf("query selection = %+v", sel.Users)
	}
	if sel.PriorityScore != 3 || sel.StandardScore != 14 {
		t.Fatalf("tier scores = %v/%v", sel.PriorityScore, sel.StandardScore)
	}
}

func TestClientDistribution(t *testing.T) {
	c, _ := newPair(t)
	d, err := c.Distribution("avgRating Mexican", []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Buckets) != 3 || d.Subset[2] != 1 {
		t.Fatalf("distribution = %+v", d)
	}
}

func TestClientSurfacesServerErrors(t *testing.T) {
	c, _ := newPair(t)
	_, err := c.Query(`garbage`)
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("error = %v, want HTTP 400 with message", err)
	}
	_, err = c.Distribution("no such property", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown property") {
		t.Fatalf("error = %v", err)
	}
}

func TestClientMutations(t *testing.T) {
	path := t.TempDir() + "/live.plog"
	ms, err := server.NewMutable("live", path, groups.Config{K: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	ts := httptest.NewServer(ms)
	defer ts.Close()
	c := New(ts.URL, nil)

	id, ngroups, err := c.AddUser("Alice", map[string]float64{"livesIn Tokyo": 1, "avgRating Mexican": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || ngroups == 0 {
		t.Fatalf("AddUser = %d, %d groups", id, ngroups)
	}
	if _, _, err := c.AddUser("Bob", map[string]float64{"avgRating Mexican": 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetScore(0, "avgRating Mexican", 0.1); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 2 {
		t.Fatalf("users = %d", st.Users)
	}
	// Mutations on an immutable server are 404s surfaced as errors.
	imm, _ := newPair(t)
	if _, _, err := imm.AddUser("X", nil); err == nil {
		t.Fatal("immutable server accepted a mutation")
	}
}

func TestClientConnectionError(t *testing.T) {
	c := New("http://127.0.0.1:1", nil) // nothing listens on port 1
	if _, err := c.Status(); err == nil {
		t.Fatal("dead server produced no error")
	}
}

// bodyResponse is a response whose body is body and whose declared length
// is length (−1 when undeclared, as for a chunked body).
func bodyResponse(body io.Reader, length int64) *http.Response {
	return &http.Response{Body: io.NopCloser(body), ContentLength: length}
}

// unreadable fails the test that reads it.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("body read despite a declared length over the cap")
	return 0, io.EOF
}

// TestReadBodyCap: a body of unknown length past the cap fails with an
// error naming the cap instead of being cut off; a declared length over the
// cap fails before the body is read or a buffer allocated (a 1 PiB buffer
// could not be); a body that ends short of its declared length fails.
func TestReadBodyCap(t *testing.T) {
	const limit = 1 << 10
	for _, length := range []int64{-1, limit} {
		data, err := readBody(bodyResponse(strings.NewReader(strings.Repeat("x", limit)), length), limit)
		if err != nil || len(data) != limit {
			t.Fatalf("body at the cap, declared %d: %d bytes, %v", length, len(data), err)
		}
	}
	_, err := readBody(bodyResponse(strings.NewReader(strings.Repeat("x", limit+1)), -1), limit)
	if err == nil || !strings.Contains(err.Error(), "1024-byte response cap") {
		t.Fatalf("undeclared body past the cap: %v, want an error naming the cap", err)
	}
	_, err = readBody(bodyResponse(unreadable{t}, 1<<50), limit)
	if err == nil || !strings.Contains(err.Error(), "1024-byte response cap") {
		t.Fatalf("declared length over the cap: %v, want an error naming the cap", err)
	}
	_, err = readBody(bodyResponse(strings.NewReader(`{"users":`), 100), limit)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestClientRejectsBadLengths: over the wire, a declared length over the
// client's cap and a body cut short of its declared length both fail the
// select.
func TestClientRejectsBadLengths(t *testing.T) {
	for _, tc := range []struct {
		length string
		body   string
		want   string
	}{
		{strconv.Itoa(maxResponseBytes + 1), "", "67108864-byte response cap"},
		{"100", `{"users":[`, "unexpected EOF"},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", tc.length)
			io.WriteString(w, tc.body)
		}))
		_, err := New(ts.URL, nil).Select(SelectRequest{Budget: 2})
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Content-Length %s with %d body bytes: %v, want an error with %q", tc.length, len(tc.body), err, tc.want)
		}
	}
}
