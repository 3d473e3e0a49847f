// Command blud serves the BLU controller over HTTP/JSON: topology
// inference (POST /v1/infer), streaming access-outcome ingestion
// (POST /v1/observe), joint access distributions (POST /v1/joint), and
// subframe scheduling (POST /v1/schedule), plus /healthz and a
// /metrics snapshot of the obs registry.
//
// /v1/observe folds per-subframe access outcomes into a bounded
// windowed estimator keyed by a session (topology) id; an infer naming
// the session instead of carrying measurements inline is solved from
// the session's live estimate, warm-started from its previous
// blueprint, and its cached result is invalidated exactly when the
// session's measurement digest moves.
//
// Request and response bodies are JSON, errors included. The only
// binary format is on disk: with -state, each observe batch is logged
// as one length-prefixed frame (internal/serve/codec.go).
//
// Usage:
//
//	blud [flags]
//
// Flags:
//
//	-addr a          listen address (default 127.0.0.1:8245; use :0 to
//	                 pick a free port — the bound address is printed as
//	                 "blud: listening on ADDR")
//	-manifest file   write a JSON run manifest here on shutdown
//	-pprof addr      serve net/http/pprof on addr
//	-state dir       durable session state under this directory: every
//	                 accepted observe batch is WAL-logged before it
//	                 folds and the live sessions are snapshotted
//	                 periodically, so a restart (even kill -9) restores
//	                 the streaming state digest-identically and session
//	                 infers stay warm (DESIGN.md §15). Empty = memory-
//	                 only.
//	-snapshot-interval d  periodic snapshot cadence (default 30s;
//	                 must be positive with -state)
//	-wal-sync d      WAL group-commit fsync interval; a crash loses at
//	                 most this window of acknowledged observes
//	                 (default 25ms; must be positive with -state)
//
// The state flags are shared with blufleet (serve.BindStateFlags).
// Everything else — pool size, queue depth, cache and session bounds,
// window, deadlines — takes the serve.Config defaults. An unusable
// -state path is a startup error naming the path.
//
// SIGTERM or SIGINT triggers a graceful drain: /healthz flips to 503
// "draining", the listener closes, every accepted request finishes, a
// final state snapshot is serialized (with -state), and the manifest
// is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blu/internal/obs"
	"blu/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "blud:", err)
		os.Exit(1)
	}
}

// run starts the daemon from args and serves until ctx is done, then
// drains.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("blud", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8245", "listen address (use :0 for a free port)")
	cfg := serve.Config{Tool: "blud", Args: args}
	fs.StringVar(&cfg.ManifestPath, "manifest", "", "write a JSON run manifest to this file on shutdown")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address")
	checkState := serve.BindStateFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if err := checkState(); err != nil {
		return err
	}

	// The service is the metrics producer; recording is always on so
	// /metrics and the manifest mean something.
	obs.Enable()
	if *pprofAddr != "" {
		got, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "blud: pprof on %s\n", got)
	}

	s, recovered, err := serve.NewDurable(cfg)
	if err != nil {
		return err
	}
	serve.LogRecovery(os.Stderr, "blud:", cfg.StateDir, recovered)
	bound, err := s.Listen(*addr)
	if err != nil {
		return err
	}
	// Scripted consumers (ci.sh serve-smoke, bluload wrappers) parse
	// this exact line to learn the bound port.
	fmt.Printf("blud: listening on %s\n", bound)

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "blud: draining")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if cfg.ManifestPath != "" {
		fmt.Fprintf(os.Stderr, "blud: manifest written to %s\n", cfg.ManifestPath)
	}
	return nil
}
