package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"rpg2/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// racyFields are the only parts of a snapshot that move between two runs of
// the same binary: wall-clock throughput and session latencies, and the
// queue peak, which is one lower when the worker pops the first session
// before the last Submit has queued (a busy host lets it).
var racyFields = []struct {
	re   *regexp.Regexp
	mask string
}{
	{regexp.MustCompile(`(?m)^(  throughput     ).*$`), "${1}(wall clock)"},
	{regexp.MustCompile(`("(?:sessions_per_sec|p50_wall|p95_wall|queue_peak)": )[0-9.e+-]+`), "${1}0"},
	{regexp.MustCompile(`(?m)^(  scheduling .*\(peak )[0-9]+\)$`), "${1}*)"},
}

// TestSnapshotGolden pins what rpg2-fleet prints — the rendered snapshot and
// the -metrics JSON — for a plain batch, the same batch under faults,
// retries and breakers, and one drifting session under the watchdog. Each
// run gets a fresh build cache, as a fresh process would. Rewrite with
// go test ./cmd/rpg2-fleet -run SnapshotGolden -update.
func TestSnapshotGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"plain", []string{"-sessions", "16", "-workers", "1", "-seed", "5"}},
		{"retries", []string{"-sessions", "16", "-workers", "1", "-seed", "5",
			"-retries", "2", "-faults", "0.25", "-breaker", "2"}},
		// -workers pinned: the default is the core count, which the
		// snapshot prints.
		{"drift", []string{"-bench", "bc-drift", "-sessions", "1", "-seed", "1",
			"-seconds", "30", "-watchdog-interval", "1", "-workers", "1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("rpg2-fleet", flag.ContinueOnError)
			o := bindOptions(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			o.fleet.Fleet.Builds = workloads.NewBuildCache()
			o.metrics = filepath.Join(t.TempDir(), "metrics.json")
			var out bytes.Buffer
			if err := run(o, &out); err != nil {
				t.Fatal(err)
			}
			metrics, err := os.ReadFile(o.metrics)
			if err != nil {
				t.Fatal(err)
			}
			got := append(out.Bytes(), metrics...)
			for _, w := range racyFields {
				got = w.re.ReplaceAll(got, []byte(w.mask))
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("rpg2-fleet %v differs from %s:\n--- got\n%s\n--- want\n%s", c.args, path, got, want)
			}
		})
	}
}
