package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the default-trace golden")

// TestDefaultTraceGolden pins the default run's CSV (6 x 13 at 4 bits)
// byte for byte: every stage's AND train and the accumulated product
// train, including the sign of each zero field component.
func TestDefaultTraceGolden(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := run(nil)
	os.Stdout = saved
	if runErr != nil {
		t.Fatal(runErr)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "default.golden.csv")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pixeltrace output differs from %s", golden)
	}
}
