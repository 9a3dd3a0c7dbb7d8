//go:build !race

// The golden walk takes 20-50 s plain and minutes under the race detector;
// TestFig7QuickPipeline and the determinism suites cover the raced path.

package experiments_test

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"rpg2/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke_all.golden from this run")

// Every artefact of the catalogue, at smoke scale on one runner, must render
// exactly the block `rpg2-experiments -smoke -all` printed when the golden
// was captured: this is what pins the simulated results of all thirteen
// tables and figures and both studies. A failure names the artefact.
func TestArtefactsSmokeGolden(t *testing.T) {
	const path = "testdata/smoke_all.golden"
	r := experiments.NewRunner(experiments.SmokeOptions())
	defer r.Close()

	arts := experiments.Artefacts()
	blocks := make([][]byte, len(arts))
	for i, a := range arts {
		res, err := a.Run(r, nil)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		blocks[i] = buf.Bytes()
	}
	if *update {
		if err := os.WriteFile(path, bytes.Join(blocks, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	rest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arts {
		if bytes.HasPrefix(rest, blocks[i]) {
			rest = rest[len(blocks[i]):]
			continue
		}
		// The golden's block for this artefact ends where the next artefact
		// that still matches begins.
		end := len(rest)
		for _, b := range blocks[i+1:] {
			if k := bytes.Index(rest, b); k >= 0 {
				end = k
				break
			}
		}
		t.Errorf("%s differs from %s (-update rewrites it)\n--- got\n%s\n--- want\n%s", a.Name, path, blocks[i], rest[:end])
		rest = rest[end:]
	}
	if len(rest) > 0 {
		t.Errorf("%s has %d bytes past the last artefact:\n%s", path, len(rest), rest)
	}
}
