package dist

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"treebench/internal/client"
	"treebench/internal/derby"
	"treebench/internal/server"
	"treebench/internal/wire"
)

// gatedShard fronts a real shard with a frame server that announces the
// shard's identity and relays Scatter requests to it — after signalling
// started and waiting for gate. It is how a test holds a distributed query
// in flight.
func gatedShard(t *testing.T, shardAddr string, started chan<- struct{}, gate <-chan struct{}) string {
	t.Helper()
	proxy := &server.Frames{
		Hello: wire.ServerHello{ShardIdx: 0, ShardCnt: 1, SnapshotKey: testKey},
		Open: func(c *server.Conn) (func(byte, []byte) bool, func()) {
			up, err := client.Dial(shardAddr, client.Options{})
			if err != nil {
				t.Error(err)
				return func(byte, []byte) bool { return false }, nil
			}
			return func(typ byte, payload []byte) bool {
				sc, err := wire.DecodeScatter(payload)
				if typ != wire.TypeScatter || err != nil {
					return false
				}
				started <- struct{}{}
				<-gate
				part, err := up.Scatter(sc)
				if err != nil {
					return c.SendError(wire.CodeQuery, err)
				}
				return c.Send(wire.TypePartial, part.Encode())
			}, func() { up.Close() }
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go proxy.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := proxy.Shutdown(ctx); err != nil {
			t.Errorf("gated shard shutdown: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestCoordinatorGracefulDrain mirrors the server's TestGracefulDrain on
// the coordinator: during a drain new connections are refused, the idle
// connection refuses its next request with CodeShutdown, the in-flight
// distributed query still delivers its full result, and a second Serve is
// refused.
func TestCoordinatorGracefulDrain(t *testing.T) {
	sn := sharedSnapshot(t)
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	shard := gatedShard(t, startShard(t, sn, 0, 1, 1), started, gate)

	co, err := New(Config{
		ShardAddrs:  []string{shard},
		Source:      func() (*derby.Snapshot, string, error) { return sn, "shared", nil },
		Label:       "dist test db",
		SnapshotKey: testKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	served := make(chan error, 1)
	go func() { served <- co.Serve(ln) }()

	idle, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	type outcome struct {
		res *wire.Result
		err error
	}
	busyDone := make(chan outcome, 1)
	go func() {
		res, err := busy.Query("select count(*) from pa in Patients", client.QueryOptions{})
		busyDone <- outcome{res, err}
	}()
	<-started // the scatter is in flight

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- co.Shutdown(ctx)
	}()
	// Serve returns once the drain has closed the listener.
	if err := <-served; err != ErrCoordClosed {
		t.Fatalf("Serve returned %v, want ErrCoordClosed", err)
	}
	if _, err := client.Dial(addr, client.Options{ConnectTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("dial succeeded during drain")
	}
	// A request arriving mid-drain is refused, with the code that says
	// why: the drain woke the idle connection, which answers CodeShutdown
	// before it closes.
	var se *client.ServerError
	if err := idle.Ping(); !errors.As(err, &se) || se.Code != wire.CodeShutdown {
		t.Fatalf("idle connection during drain: want CodeShutdown, got %v", err)
	}

	close(gate)
	out := <-busyDone
	if out.err != nil {
		t.Fatalf("in-flight distributed query lost during drain: %v", out.err)
	}
	if out.res.Rows == 0 {
		t.Fatal("in-flight distributed query returned an empty result")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The drained connection is closed once its response is flushed.
	if _, err := busy.Query("select count(*) from pa in Patients", client.QueryOptions{}); err == nil {
		t.Fatal("connection accepted work after drain")
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Serve(ln2); err != ErrCoordClosed {
		t.Fatalf("Serve after Shutdown returned %v, want ErrCoordClosed", err)
	}
}
