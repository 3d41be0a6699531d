package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // ServePprof serves the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"treebench/internal/derby"
	"treebench/internal/persist"
)

// What treebenchd's main does around its frame server: obtain the snapshot,
// expose pprof, serve until a signal, drain.

// SnapshotSource builds a Config.Source for cfg: straight generation when
// dir is empty, the content-addressed cache in dir otherwise. With a warm
// cache a daemon boots without generating anything; the returned
// provenance string surfaces in Stats.
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", name, err)
		return
	}
	go http.Serve(ln, nil)
}

// RunDaemon serves on addr until the listener fails or SIGINT/SIGTERM
// arrives, then drains within grace: in-flight requests finish and flush
// before it returns. name prefixes the lifecycle lines on stdout — the
// "serving" line, printed once the address is bound, is what scripts wait
// on.
func (s *Server) RunDaemon(name, addr string, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("%s: serving %s on %s\n", name, s.cfg.Label, addr)

	sig, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	defer context.AfterFunc(sig, func() {
		fmt.Printf("%s: signalled, draining...\n", name)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		drained <- s.Shutdown(ctx)
	})()
	if err := s.Serve(ln); err != ErrServerClosed {
		return err
	}
	if err := <-drained; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Printf("%s: drained, bye\n", name)
	return nil
}
