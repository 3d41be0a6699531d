package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"treebench/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// handshakeTimeout bounds how long a fresh connection may take to say
// Hello before it is dropped.
const handshakeTimeout = 10 * time.Second

// Frames is the frame server treebenchd runs on: the listener, the accept
// loop, the connection registry, the Hello handshake, the in-order request
// loop and the graceful drain. What a request means is the handler's
// business; Server embeds a Frames and installs its handler. Set the
// exported fields before Serve.
type Frames struct {
	// Hello is announced to every client that completes the handshake
	// (Version is filled in).
	Hello wire.ServerHello
	// Open runs once per connection, after its handshake, on the
	// connection's goroutine. It returns the connection's request handler —
	// called for each frame in arrival order, reporting whether the
	// connection survives it — and an optional hook run when the connection
	// closes.
	Open func(c *Conn) (handle func(typ byte, payload []byte) bool, closed func())
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Metrics counts connections here and whatever the handlers record.
	Metrics Metrics

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*Conn]struct{}
	drained chan struct{} // made as the drain begins, closed as the last connection goes
}

// Conn is one accepted connection. Requests are handled strictly in order,
// each on the connection's goroutine, and only that goroutine writes to the
// socket, so responses need no write lock.
type Conn struct {
	f  *Frames
	c  net.Conn
	bw *bufio.Writer
}

func (f *Frames) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Shutdown, which closes ln and makes
// Serve return ErrServerClosed once the listener unblocks.
func (f *Frames) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.drained != nil {
		f.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	f.ln = ln
	if f.conns == nil {
		f.conns = make(map[*Conn]struct{})
	}
	f.mu.Unlock()
	f.logf("listening on %s (db %s)", ln.Addr(), f.Hello.Label)
	for {
		nc, err := ln.Accept()
		if err != nil {
			if f.isDraining() {
				return ErrServerClosed
			}
			return err
		}
		c := &Conn{f: f, c: nc, bw: bufio.NewWriter(nc)}
		f.mu.Lock()
		if f.drained != nil {
			f.mu.Unlock()
			nc.Close()
			continue
		}
		f.conns[c] = struct{}{}
		f.mu.Unlock()
		go c.serve()
	}
}

func (f *Frames) isDraining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drained != nil
}

// Shutdown drains: it stops accepting, wakes every connection's pending
// read with a deadline — not a close, so a woken connection still answers
// CodeShutdown on its way out — lets in-flight requests finish and flush
// their responses, and returns once every connection has closed (or ctx
// expires first).
func (f *Frames) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	if f.drained == nil {
		f.drained = make(chan struct{})
		if f.ln != nil {
			f.ln.Close()
		}
		for c := range f.conns {
			c.c.SetReadDeadline(time.Now())
		}
		if len(f.conns) == 0 {
			close(f.drained)
		}
	}
	drained := f.drained
	f.mu.Unlock()
	select {
	case <-drained:
		f.logf("drained")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Conn) serve() {
	f := c.f
	defer func() {
		c.c.Close()
		f.mu.Lock()
		delete(f.conns, c)
		if f.drained != nil && len(f.conns) == 0 {
			close(f.drained)
		}
		f.mu.Unlock()
	}()
	f.Metrics.sessions.Add(1)
	defer f.Metrics.sessions.Add(-1)

	if !c.handshake() {
		return
	}
	handle, closed := f.Open(c)
	if closed != nil {
		defer closed()
	}
	// A drain wakes the pending read (or began during the handshake, which
	// may have cleared the wake-up), or the frame just read arrived as it
	// began: either way the client is told why before the connection closes.
	for !f.isDraining() {
		typ, payload, err := wire.ReadFrame(c.c)
		if f.isDraining() {
			break
		}
		if err != nil || !handle(typ, payload) {
			return // disconnect, or a request the connection does not survive
		}
	}
	c.SendError(wire.CodeShutdown, errors.New("server is draining"))
}

func (c *Conn) handshake() bool {
	c.c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := wire.ReadFrame(c.c)
	if err != nil {
		return false
	}
	c.c.SetReadDeadline(time.Time{})
	if typ != wire.TypeHello {
		c.SendError(wire.CodeProto, errors.New("expected hello"))
		return false
	}
	h, err := wire.DecodeHello(payload)
	if err != nil || h.Version != wire.Version {
		c.SendError(wire.CodeProto, errors.New("unsupported protocol version"))
		return false
	}
	hello := c.f.Hello
	hello.Version = wire.Version
	return c.Send(wire.TypeServerHello, hello.Encode())
}

// Send writes and flushes one frame, reporting whether the connection is
// still writable.
func (c *Conn) Send(typ byte, payload []byte) bool {
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return false
	}
	return c.bw.Flush() == nil
}

// SendError answers with a TypeError frame carrying code and err's text.
func (c *Conn) SendError(code byte, err error) bool {
	return c.Send(wire.TypeError, (&wire.Error{Code: code, Msg: err.Error()}).Encode())
}
