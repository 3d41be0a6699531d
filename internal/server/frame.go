package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"time"

	"treebench/internal/wire"
)

// The frame server: the listener, the accept loop, the connection
// registry, the Hello handshake, the in-order request loop and the
// graceful drain. What a request means is conn.handle's business
// (conn.go).

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("server: closed")

// handshakeTimeout bounds how long a fresh connection may take to say
// Hello before it is dropped.
const handshakeTimeout = 10 * time.Second

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until Shutdown, which closes ln and makes
// Serve return ErrServerClosed once the listener unblocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.drained != nil {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	if s.conns == nil {
		s.conns = make(map[*conn]struct{})
	}
	s.mu.Unlock()
	s.logf("listening on %s (db %s)", ln.Addr(), s.cfg.Label)
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return ErrServerClosed
			}
			return err
		}
		c := &conn{srv: s, c: nc, bw: bufio.NewWriter(nc)}
		s.mu.Lock()
		if s.drained != nil {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drained != nil
}

// Shutdown drains: it stops accepting, wakes every connection's pending
// read with a deadline — not a close, so a woken connection still answers
// CodeShutdown on its way out — lets in-flight requests finish and flush
// their responses, and returns once every connection has closed (or ctx
// expires first).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.drained == nil {
		s.drained = make(chan struct{})
		if s.ln != nil {
			s.ln.Close()
		}
		for c := range s.conns {
			c.c.SetReadDeadline(time.Now())
		}
		if len(s.conns) == 0 {
			close(s.drained)
		}
	}
	drained := s.drained
	s.mu.Unlock()
	select {
	case <-drained:
		s.logf("drained")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// serve runs the connection: its requests are handled strictly in order,
// each on this goroutine, and only this goroutine writes to the socket, so
// responses need no write lock.
func (c *conn) serve() {
	s := c.srv
	defer func() {
		c.c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		if s.drained != nil && len(s.conns) == 0 {
			close(s.drained)
		}
		s.mu.Unlock()
	}()
	s.metrics.sessions.Add(1)
	defer s.metrics.sessions.Add(-1)

	if !c.handshake() {
		return
	}
	// A drain wakes the pending read (or began during the handshake, which
	// may have cleared the wake-up), or the frame just read arrived as it
	// began: either way the client is told why before the connection closes.
	for !s.isDraining() {
		typ, payload, err := wire.ReadFrame(c.c)
		if s.isDraining() {
			break
		}
		if err != nil || !c.handle(typ, payload) {
			return // disconnect, or a request the connection does not survive
		}
	}
	c.sendError(wire.CodeShutdown, errors.New("server is draining"))
}

func (c *conn) handshake() bool {
	c.c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := wire.ReadFrame(c.c)
	if err != nil {
		return false
	}
	c.c.SetReadDeadline(time.Time{})
	if typ != wire.TypeHello {
		c.sendError(wire.CodeProto, errors.New("expected hello"))
		return false
	}
	h, err := wire.DecodeHello(payload)
	if err != nil || h.Version != wire.Version {
		c.sendError(wire.CodeProto, errors.New("unsupported protocol version"))
		return false
	}
	hello := wire.ServerHello{Version: wire.Version, Label: c.srv.cfg.Label}
	return c.send(wire.TypeServerHello, hello.Encode())
}

// send writes and flushes one frame, reporting whether the connection is
// still writable.
func (c *conn) send(typ byte, payload []byte) bool {
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return false
	}
	return c.bw.Flush() == nil
}

// sendError answers with a TypeError frame carrying code and err's text.
func (c *conn) sendError(code byte, err error) bool {
	return c.send(wire.TypeError, (&wire.Error{Code: code, Msg: err.Error()}).Encode())
}
