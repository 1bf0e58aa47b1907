package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestObsDump runs the headless serve path on two shards and checks
// that it writes the three artifacts, non-empty, and that the JSON
// snapshot parses.
func TestObsDump(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-shards", "2", "-obs-dump", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "observability artifacts written to " + dir + "\n"; out.String() != want {
		t.Errorf("stdout %q, want %q", out.String(), want)
	}
	for _, name := range []string{"metrics.prom", "stats.json", "trace.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", name)
		}
		if name != "metrics.prom" {
			var v any
			if err := json.Unmarshal(b, &v); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestRunRefusesUnknownFlag: the scenario flags are gone, and a command
// line that names one is refused before anything runs.
func TestRunRefusesUnknownFlag(t *testing.T) {
	for _, args := range [][]string{{"-scenario", "serve"}, {"extra"}} {
		if err := run(args, new(bytes.Buffer)); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
	}
}
