package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcast/internal/trace"
)

func TestRunSelectedQuickFigure(t *testing.T) {
	// table1 on the quick profile runs three small simulation batches.
	if err := run([]string{"-only", "table1", "-reps", "1"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-profile", "bogus"}, io.Discard, io.Discard); err == nil {
		t.Error("accepted unknown profile")
	}
	if err := run([]string{"-only", "fig99"}, io.Discard, io.Discard); err == nil {
		t.Error("accepted unknown figure")
	}
	if err := run([]string{"-not-a-flag"}, io.Discard, io.Discard); err == nil {
		t.Error("accepted unknown flag")
	}
}

func TestRunTimeout(t *testing.T) {
	if err := run([]string{"-only", "table1", "-reps", "1", "-timeout", "1h"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("ample timeout failed the suite: %v", err)
	}
	err := run([]string{"-only", "table1", "-reps", "1", "-timeout", "1ms"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("tight timeout err = %v, want canceled suite", err)
	}
}

// TestRunWritesTraceArtifact exercises the -trace flag end to end: the
// suite must leave a parseable, non-empty NDJSON artifact behind.
func TestRunWritesTraceArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.jsonl")
	if err := run([]string{"-only", "table1", "-reps", "1", "-trace", path}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := trace.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("traced suite produced an empty artifact")
	}
}

// TestFooterReportsWorkersUsed checks the stderr footer names the worker
// count the pool actually ran with: the -workers count when untraced, and
// 1 when -trace forced the batches serial.
func TestFooterReportsWorkersUsed(t *testing.T) {
	for _, tc := range []struct {
		traced bool
		want   int
	}{{false, 3}, {true, 1}} {
		args := []string{"-only", "table1", "-reps", "1", "-workers", "3"}
		if tc.traced {
			args = append(args, "-trace", filepath.Join(t.TempDir(), "suite.jsonl"))
		}
		var stderr bytes.Buffer
		if err := run(args, io.Discard, &stderr); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("workers=%d)", tc.want); !strings.Contains(stderr.String(), want) {
			t.Fatalf("traced=%v: footer %q does not report %s", tc.traced, stderr.String(), want)
		}
	}
}

// TestCSVLeavesStdoutUntouched checks -csv only writes its files: the
// report on stdout is the same with and without it.
func TestCSVLeavesStdoutUntouched(t *testing.T) {
	var plain, withCSV bytes.Buffer
	if err := run([]string{"-only", "table1"}, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run([]string{"-only", "table1", "-csv", dir}, &withCSV, io.Discard); err != nil {
		t.Fatal(err)
	}
	if plain.String() != withCSV.String() {
		t.Fatalf("-csv changed stdout:\nwithout:\n%s\nwith:\n%s", plain.String(), withCSV.String())
	}
	for _, name := range []string{"sweep.csv", "fig5.csv", "fig9.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written: %v", name, err)
		}
	}
}
