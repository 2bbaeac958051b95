package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sos"
	"sos/internal/obs"
)

func TestSimulateProfiles(t *testing.T) {
	for _, p := range sos.Profiles() {
		if err := simulate(simOpts{Profile: p, Days: 5, Seed: 1, Out: &bytes.Buffer{}}); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	if _, err := sos.ParseProfile("mlc"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestSimulateRecordReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	if err := simulate(simOpts{Days: 5, Seed: 2, Record: path, Out: &bytes.Buffer{}}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("empty trace recorded")
	}
	if err := simulate(simOpts{Seed: 2, Replay: path, Out: &bytes.Buffer{}}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateReplayMissingFile(t *testing.T) {
	if err := simulate(simOpts{Days: 5, Seed: 1, Replay: "/nonexistent/trace.jsonl"}); err == nil {
		t.Fatal("missing replay file accepted")
	}
}

// TestCPUProfileKeepsOutput: an audited run prints the same bytes with
// -cpuprofile set, and the profile lands in its file, not on stdout.
func TestCPUProfileKeepsOutput(t *testing.T) {
	opts := simOpts{Days: 10, Seed: 1, Audit: true}
	var plain, profiled bytes.Buffer
	opts.Out = &plain
	if err := simulate(opts); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	opts.Out = &profiled
	if err := withCPUProfile(path, func() error { return simulate(opts) }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Fatalf("output differs under -cpuprofile:\n--- plain\n%s--- profiled\n%s", plain.Bytes(), profiled.Bytes())
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("no profile written: %v", err)
	}
}

// TestSimulateMetrics: -metrics mode emits only a parseable Prometheus
// exposition covering all three telemetry layers.
func TestSimulateMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := simulate(simOpts{Days: 5, Seed: 1, Metrics: true, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if n, err := obs.ParseExposition(strings.NewReader(text)); err != nil || n == 0 {
		t.Fatalf("exposition invalid: %d samples, %v", n, err)
	}
	for _, family := range []string{
		"sos_device_writes_total",
		"sos_ftl_flash_programs_total",
		"sos_engine_created_total",
		"sos_obs_events_total",
		"sos_obs_read_latency_seconds_bucket",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
	if strings.Contains(text, "profile ") {
		t.Error("-metrics output mixed with the human report")
	}
}

func TestSimulateTraceDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	if err := simulate(simOpts{Days: 5, Seed: 1, TraceFile: path, Out: &bytes.Buffer{}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty event trace")
	}
	if !strings.Contains(lines[0], `"kind"`) {
		t.Fatalf("unexpected trace line %q", lines[0])
	}
}
