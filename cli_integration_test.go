package podium

// End-to-end CLI integration: build the actual binaries and drive the
// generate → select → serve workflow a user would run. These tests shell out
// to the Go toolchain, so they are skipped in -short mode.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIGenerateSelectRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	gen := buildTool(t, dir, "podium-gen")
	sel := buildTool(t, dir, "podium-select")

	profiles := filepath.Join(dir, "profiles.json")
	out, err := exec.Command(gen, "-users", "60", "-seed", "5", "-out", profiles).CombinedOutput()
	if err != nil {
		t.Fatalf("podium-gen: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "60 users") {
		t.Fatalf("gen output: %s", out)
	}

	out, err = exec.Command(sel, "-in", profiles, "-budget", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("podium-select: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "Selected 4 users") {
		t.Fatalf("select output missing selection summary:\n%s", text)
	}
	if !strings.Contains(text, "top-weight groups covered") {
		t.Fatalf("select output missing coverage headline:\n%s", text)
	}

	// Binary dataset round trip through the same tools.
	ds := filepath.Join(dir, "corpus.podium")
	if out, err := exec.Command(gen, "-users", "50", "-format", "dataset", "-out", ds).CombinedOutput(); err != nil {
		t.Fatalf("podium-gen binary: %v\n%s", err, out)
	}
	out, err = exec.Command(sel, "-in", ds, "-budget", "3",
		"-query", `SELECT 3 USERS WEIGHTS IDEN`).CombinedOutput()
	if err != nil {
		t.Fatalf("podium-select on binary dataset: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Selected 3 users") {
		t.Fatalf("query select output:\n%s", out)
	}
}

func TestCLISelectErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	sel := buildTool(t, dir, "podium-select")

	// Missing -in exits non-zero.
	if err := exec.Command(sel).Run(); err == nil {
		t.Fatal("podium-select without -in succeeded")
	}
	// Unknown file exits non-zero.
	if err := exec.Command(sel, "-in", filepath.Join(dir, "nope.json")).Run(); err == nil {
		t.Fatal("podium-select with missing file succeeded")
	}
	// Bad query reported.
	profiles := filepath.Join(dir, "p.json")
	if err := os.WriteFile(profiles, []byte(`{"users":[{"name":"a","properties":{"p":0.5}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(sel, "-in", profiles, "-query", "garbage").CombinedOutput()
	if err == nil {
		t.Fatalf("bad query succeeded:\n%s", out)
	}
}

func TestCLIEval(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	gen := buildTool(t, dir, "podium-gen")
	eval := buildTool(t, dir, "podium-eval")

	profiles := filepath.Join(dir, "profiles.json")
	if out, err := exec.Command(gen, "-users", "40", "-out", profiles).CombinedOutput(); err != nil {
		t.Fatalf("podium-gen: %v\n%s", err, out)
	}
	out, err := exec.Command(eval, "-in", profiles, "-users", "0,1,2").CombinedOutput()
	if err != nil {
		t.Fatalf("podium-eval: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"Total score", "coverage", "Proportionate deviation"} {
		if !strings.Contains(text, want) {
			t.Fatalf("eval output missing %q:\n%s", want, text)
		}
	}
	// Name resolution and error handling.
	if out, err := exec.Command(eval, "-in", profiles, "-users", "user-00003").CombinedOutput(); err != nil {
		t.Fatalf("eval by name: %v\n%s", err, out)
	}
	if err := exec.Command(eval, "-in", profiles, "-users", "no-such-user").Run(); err == nil {
		t.Fatal("unknown user accepted")
	}
	if err := exec.Command(eval, "-in", profiles, "-users", "0,0").Run(); err == nil {
		t.Fatal("duplicate user accepted")
	}
}

func TestCLIBenchApprox(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bench := buildTool(t, dir, "podium-bench")
	out, err := exec.Command(bench, "approx", "-seed", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("podium-bench approx: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Ratio") || !strings.Contains(string(out), "mean") {
		t.Fatalf("approx output:\n%s", out)
	}
	// SVG emission works end to end.
	figs := filepath.Join(dir, "figs")
	if out, err := exec.Command(bench, "approx", "-seed", "2", "-svgdir", figs).CombinedOutput(); err != nil {
		t.Fatalf("podium-bench -svgdir: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(figs)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no SVG written: %v", err)
	}
	if !strings.HasSuffix(entries[0].Name(), ".svg") {
		t.Fatalf("unexpected file %q", entries[0].Name())
	}
}

// startServer starts the podium-server binary with args on a free port and
// returns its base URL and a stop function that interrupts it and waits for
// its clean exit.
func startServer(t *testing.T, bin string, args ...string) (string, func()) {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	url := ""
	for url == "" && sc.Scan() {
		if _, after, ok := strings.Cut(sc.Text(), "podium-server: listening on "); ok {
			url = after
		}
	}
	if url == "" {
		cmd.Process.Kill()
		t.Fatalf("podium-server %v exited before listening: %v", args, cmd.Wait())
	}
	go io.Copy(io.Discard, stdout)
	return url, func() {
		t.Helper()
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("podium-server %v: %v", args, err)
		}
	}
}

// post sends body to url and returns the 200 response body.
func post(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %v: %s", url, resp.StatusCode, err, data)
	}
	return data
}

// An immutable podium-server started with -in on a repository log serves
// the panel a -log server restarted on a copy of that log serves, at every
// boot: both pin the bucket cuts the log committed. Property "q" is
// bucketed at its first score, so cuts derived from all five scores would
// group users otherwise. Reading the log leaves its bytes as they were.
func TestCLIServerOnRepositoryLog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "podium-server")
	logPath := filepath.Join(dir, "repo.plog")
	url, stop := startServer(t, bin, "-log", logPath)
	for i, q := range []float64{0.5, 0.05, 0.12, 0.33, 0.41} {
		post(t, url+"/api/v1/users", fmt.Sprintf(`{"name":"U%d","properties":{"q":%g}}`, i, q))
	}
	stop()
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(dir, "copy.plog")
	if err := os.WriteFile(copyPath, logBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	selectOn := func(args ...string) []byte {
		url, stop := startServer(t, bin, args...)
		defer stop()
		return post(t, url+"/api/v1/select", `{"budget":3}`)
	}
	restarted := selectOn("-log", copyPath)
	// The second -in start would load a snapshot image the first wrote, and
	// an image holds no cuts; podium-server writes none for such a log.
	img := filepath.Join(dir, "repo.img")
	for boot := 1; boot <= 2; boot++ {
		if immutable := selectOn("-in", logPath, "-snapshot-image", img); !bytes.Equal(immutable, restarted) {
			t.Fatalf("boot %d: -in server on the log selects\n%s\na -log server restarted on a copy selects\n%s", boot, immutable, restarted)
		}
	}
	if after, err := os.ReadFile(logPath); err != nil || !bytes.Equal(after, logBytes) {
		t.Fatalf("serving -in changed the log: %d bytes before, %d after (%v)", len(logBytes), len(after), err)
	}
}
