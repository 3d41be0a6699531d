package server

import (
	"context"
	"fmt"
	"net/http"
	_ "net/http/pprof" // ServePprof serves the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"treebench/internal/derby"
	"treebench/internal/persist"
)

// What a daemon's main does around its frame server, shared by treebenchd
// and treebench-coord: obtain the snapshot, expose pprof, serve until a
// signal, drain.

// SnapshotSource builds a Config.Source for cfg: straight generation when
// dir is empty, the content-addressed cache in dir otherwise. With a warm
// cache a daemon boots without generating anything, and a coordinator
// co-located with a shard shares its cached file; the returned provenance
// string surfaces in Stats.
func SnapshotSource(cfg derby.Config, dir string) func() (*derby.Snapshot, string, error) {
	if dir == "" {
		return func() (*derby.Snapshot, string, error) {
			d, err := derby.Generate(cfg)
			if err != nil {
				return nil, "", err
			}
			sn, err := d.Freeze()
			if err != nil {
				return nil, "", err
			}
			return sn, "generated", nil
		}
	}
	return func() (*derby.Snapshot, string, error) {
		cache, err := persist.Open(dir)
		if err != nil {
			return nil, "", err
		}
		sn, out, err := cache.GetOrGenerate(cfg)
		if err != nil {
			return nil, "", err
		}
		return sn, fmt.Sprintf("%s (%s)", out.Source, out.Path), nil
	}
}

// ServePprof serves net/http/pprof on addr in the background (empty addr
// disables), so the hot paths can be profiled under load.
func ServePprof(name, addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", name, err)
		}
	}()
}

// RunDaemon serves on addr until the listener fails or SIGINT/SIGTERM
// arrives, then drains within grace: in-flight requests finish and flush
// before it returns. name prefixes the lifecycle lines on stdout — the
// "serving" line is what scripts wait on.
func (f *Frames) RunDaemon(name, addr string, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- f.ListenAndServe(addr) }()
	fmt.Printf("%s: serving %s on %s\n", name, f.Hello.Label, addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err == ErrServerClosed {
			return nil
		}
		return err
	case sig := <-sigc:
		fmt.Printf("%s: %s, draining...\n", name, sig)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Printf("%s: drained, bye\n", name)
		return nil
	}
}
