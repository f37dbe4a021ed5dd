package repro

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesGolden runs every program under examples/ with `go run` and
// compares its stdout with testdata/examples/<name>.golden. Each example is
// seeded, so its output is a function of the code alone: a line that moves
// is a behaviour change to explain, not noise. Regenerate a golden with
//
//	go run ./examples/<name> > testdata/examples/<name>.golden
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("./examples/%s output differs from its golden:\n--- got\n%s--- want\n%s", name, got, want)
			}
		})
	}
}
