package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagSurface drives run in both serving modes with the state flags
// blufleet shares with blud and with each flag blufleet no longer has.
// A run that starts returns nil at once: its context is already
// cancelled, so it drains right after listening.
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
	for _, f := range []string{"workers", "queue", "replicas"} {
		cases = append(cases, flagCase{"deleted -" + f, []string{"-" + f, "1"}, "flag provided but not defined: -" + f})
	}
	modes := map[string][]string{
		"all":   {"-mode", "all"},
		"shard": {"-mode", "shard", "-name", "shard-0"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for mode, modeArgs := range modes {
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				args := append(append([]string{"-addr", "127.0.0.1:0", "-exchange", "0"}, modeArgs...), tc.args...)
				err := run(ctx, args)
				switch {
				case tc.wantErr == "" && err != nil:
					t.Fatalf("run %v: %v", args, err)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Fatalf("run %v: error %v, want one containing %q", args, err, tc.wantErr)
				}
			})
		}
	}
}
