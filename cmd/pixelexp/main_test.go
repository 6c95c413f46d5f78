package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pixelexp -ext golden")

// captureStdout runs fn with os.Stdout redirected and returns what it
// wrote.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = saved
	if runErr != nil {
		t.Fatal(runErr)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExtGolden pins the full pixelexp -ext output, every paper table,
// extension study, headline and ablation, byte for byte, at the default
// worker count and at one worker.
func TestExtGolden(t *testing.T) {
	golden := filepath.Join("testdata", "ext.golden")
	got := captureStdout(t, func() error { return run([]string{"-ext"}) })
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
		t.Fatalf("pixelexp -ext output differs from %s", golden)
	}
	one := captureStdout(t, func() error { return run([]string{"-ext", "-workers", "1"}) })
	if !bytes.Equal(one, want) {
		t.Fatalf("pixelexp -ext -workers 1 output differs from %s", golden)
	}
}
