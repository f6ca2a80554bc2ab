package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeCLISmoke boots the daemon in-process on an ephemeral port via
// the serveReady/serveStop test hooks, cross-checks POST /v1/matrix
// against `matrix -json` byte for byte (the served codec IS the CLI
// codec), and shuts down through the same graceful-drain path a SIGTERM
// takes — asserting the stats line lands on stderr and run returns nil.
func TestServeCLISmoke(t *testing.T) {
	// One-shot CLI reference first; the daemon below shares no state
	// with this run.
	jsonPath := filepath.Join(t.TempDir(), "matrix.json")
	if _, err := capture(t, "matrix", trimApp, "-metric", "tsem", "-json", jsonPath, "-workers", "1"); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides below share one writer, so pin its bytes independently:
	// the same document decoded and re-encoded by encoding/json.
	if ref := reencodeMatrixJSON(t, want); string(ref) != string(want) {
		t.Fatalf("`matrix -json` output differs from encoding/json's rendering of it:\ncli:  %s\njson: %s", want, ref)
	}

	addrCh := make(chan net.Addr, 1)
	serveReady = func(a net.Addr) { addrCh <- a }
	serveStop = make(chan struct{})
	defer func() { serveReady = nil; serveStop = nil }()

	// The listening banner and shutdown stats line go to stderr.
	oldStderr := os.Stderr
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = wp
	stderrCh := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(rp)
		stderrCh <- string(b)
	}()
	restoreStderr := func() {
		if os.Stderr == wp {
			wp.Close()
			os.Stderr = oldStderr
		}
	}
	defer restoreStderr()

	runDone := make(chan error, 1)
	go func() {
		runDone <- run([]string{"serve", "-addr", "127.0.0.1:0",
			"-max-inflight", "1", "-queue", "2", "-shutdown-timeout", "5s", "-workers", "1"})
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-runDone:
		restoreStderr()
		t.Fatalf("daemon exited before listening: %v\nstderr: %s", err, <-stderrCh)
	case <-time.After(30 * time.Second):
		restoreStderr()
		t.Fatalf("daemon never came up\nstderr: %s", <-stderrCh)
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(health) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, health)
	}

	resp, err = http.Post(base+"/v1/matrix", "application/json",
		strings.NewReader(fmt.Sprintf(`{"app":%q,"metric":"tsem"}`, trimApp)))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix status %d: %s", resp.StatusCode, got)
	}
	if string(got) != string(want) {
		t.Errorf("served matrix differs from `matrix -json` output:\nserved: %s\ncli:    %s", got, want)
	}

	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(stats), `"requests": 1`) {
		t.Fatalf("stats = %d %s", resp.StatusCode, stats)
	}

	close(serveStop) // the signal handler's graceful-drain path
	var runErr error
	select {
	case runErr = <-runDone:
	case <-time.After(30 * time.Second):
		restoreStderr()
		t.Fatal("daemon did not drain within the shutdown budget")
	}
	restoreStderr()
	stderr := <-stderrCh
	if runErr != nil {
		t.Fatalf("serve returned %v\nstderr: %s", runErr, stderr)
	}
	if !strings.Contains(stderr, "serve: listening on http://") {
		t.Errorf("listening banner missing from stderr: %q", stderr)
	}
	if !strings.Contains(stderr, "serve: 1 requests, 0 rejected, 0 canceled, 0 errors") {
		t.Errorf("shutdown stats line missing from stderr: %q", stderr)
	}
}

// reencodeMatrixJSON decodes a matrix payload into a plain mirror of its
// fields (fingerprints as strings) and re-encodes it with encoding/json's
// two-space indentation: the rendering the shared matrix writer must
// reproduce byte for byte.
func reencodeMatrixJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc struct {
		App    string      `json:"app"`
		Metric string      `json:"metric"`
		Order  []string    `json:"order"`
		Matrix [][]float64 `json:"matrix"`
		Units  map[string][]struct {
			File        string `json:"file"`
			Role        string `json:"role"`
			Fingerprint string `json:"fingerprint"`
		} `json:"units"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("matrix JSON does not parse: %v", err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeRejectsBadInvocations: flag/positional/listen errors surface
// as errors from run, not as a hung daemon.
func TestServeRejectsBadInvocations(t *testing.T) {
	if _, err := capture(t, "serve", "positional"); err == nil {
		t.Error("serve with positional args did not fail")
	}
	if _, err := capture(t, "serve", "-addr", "definitely-not-an-address"); err == nil {
		t.Error("serve with an unlistenable address did not fail")
	}
}
