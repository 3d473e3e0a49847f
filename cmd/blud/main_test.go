package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface drives run with the state flags blud shares with
// blufleet and with each flag blud no longer has. A run that starts
// returns nil at once: its context is already cancelled, so it drains
// right after listening.
func TestFlagSurface(t *testing.T) {
	file := filepath.Join(t.TempDir(), "regular")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	underFile := filepath.Join(file, "sub")
	type flagCase struct {
		name    string
		args    []string
		wantErr string // "" = must start
	}
	cases := []flagCase{
		{"interval ignored without state", []string{"-snapshot-interval", "0", "-wal-sync", "0"}, ""},
		{"zero snapshot interval with state", []string{"-state", t.TempDir(), "-snapshot-interval", "0"}, "-snapshot-interval must be positive"},
		{"zero wal sync with state", []string{"-state", t.TempDir(), "-wal-sync", "0"}, "-wal-sync must be positive"},
		{"state under a regular file", []string{"-state", underFile}, underFile},
	}
	for _, f := range []string{"workers", "solver-parallel", "queue", "cache", "sessions", "window", "timeout", "max-timeout"} {
		cases = append(cases, flagCase{"deleted -" + f, []string{"-" + f, "1"}, "flag provided but not defined: -" + f})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...))
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("run %v: %v", tc.args, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("run %v: error %v, want one containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}
