// Package client is the Go client for treebenchd: connect (with retry),
// speak the internal/wire protocol, and get back typed results, server
// stats, and errors. oqlsh -coord and the bench/ module drive it; tests use
// it to pin down remote/local result equivalence.
package client

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"treebench/internal/wire"
)

// Options tune a connection.
type Options struct {
	// ConnectTimeout bounds each dial attempt (default 5s).
	ConnectTimeout time.Duration
	// RetryAttempts is how many times to retry a failed dial or handshake
	// before giving up (default 0: fail on the first error). Retries make
	// "start the daemon, immediately run the client" scripts reliable
	// while the daemon is still generating its first replica.
	RetryAttempts int
	// RetryDelay separates attempts (default 250ms).
	RetryDelay time.Duration
	// IOTimeout bounds each request/response exchange; 0 disables
	// deadlines (a slow query then blocks until the server answers).
	IOTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.ConnectTimeout == 0 {
		o.ConnectTimeout = 5 * time.Second
	}
	if o.RetryDelay == 0 {
		o.RetryDelay = 250 * time.Millisecond
	}
	return o
}

// QueryOptions tune one query.
type QueryOptions struct {
	// Warm keeps the session's replica caches warm instead of the paper's
	// default cold restart.
	Warm bool
	// Heuristic selects the legacy optimizer instead of the cost-based one.
	Heuristic bool
	// MaxRows caps the sample rows shipped back (default 10).
	MaxRows int
}

// ServerError is a typed error response from the daemon.
type ServerError struct {
	Code byte
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("server error (%s): %s", codeName(e.Code), e.Msg)
}

func codeName(c byte) string {
	switch c {
	case wire.CodeQuery:
		return "query"
	case wire.CodeBusy:
		return "busy"
	case wire.CodeTimeout:
		return "timeout"
	case wire.CodeShutdown:
		return "shutdown"
	case wire.CodeProto:
		return "protocol"
	case wire.CodeReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("code %d", c)
	}
}

// Client is one connection to a treebenchd.
type Client struct {
	conn  net.Conn
	bw    *bufio.Writer
	opts  Options
	label string
}

// Dial connects and handshakes, retrying per opts.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	var lastErr error
	for attempt := 0; attempt <= opts.RetryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(opts.RetryDelay)
		}
		c, err := dialOnce(addr, opts)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: connect %s: %w", addr, lastErr)
}

func dialOnce(addr string, opts Options) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.ConnectTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, bw: bufio.NewWriter(conn), opts: opts}
	conn.SetDeadline(time.Now().Add(opts.ConnectTimeout))
	typ, payload, err := c.roundTrip(wire.TypeHello, (&wire.Hello{Version: wire.Version}).Encode())
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	if typ != wire.TypeServerHello {
		conn.Close()
		return nil, asServerError(typ, payload)
	}
	h, err := wire.DecodeServerHello(payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.label = h.Label
	return c, nil
}

// Label names the database the server serves.
func (c *Client) Label() string { return c.label }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	if err := wire.WriteFrame(c.bw, typ, payload); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	return wire.ReadFrame(c.conn)
}

// request sends one frame and reads the response under IOTimeout.
func (c *Client) request(typ byte, payload []byte) (byte, []byte, error) {
	if c.opts.IOTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	return c.roundTrip(typ, payload)
}

func asServerError(typ byte, payload []byte) error {
	if typ != wire.TypeError {
		return fmt.Errorf("client: unexpected frame type %d", typ)
	}
	e, err := wire.DecodeError(payload)
	if err != nil {
		return err
	}
	return &ServerError{Code: e.Code, Msg: e.Msg}
}

// Query executes one OQL statement remotely. A failed query returns a
// *ServerError with CodeQuery; admission rejection and timeouts come back
// as CodeBusy and CodeTimeout.
func (c *Client) Query(stmt string, opts QueryOptions) (*wire.Result, error) {
	if opts.MaxRows == 0 {
		opts.MaxRows = 10
	}
	q := &wire.Query{Stmt: stmt, Warm: opts.Warm, MaxRows: uint32(opts.MaxRows)}
	if opts.Heuristic {
		q.Strategy = wire.StrategyHeuristic
	}
	typ, payload, err := c.request(wire.TypeQuery, q.Encode())
	if err != nil {
		return nil, err
	}
	if typ != wire.TypeResult {
		return nil, asServerError(typ, payload)
	}
	return wire.DecodeResult(payload)
}

// Commit asks the server to apply and durably commit the next update
// wave on its MVCC chain. The frame carries no payload: which wave runs
// is the server's decision (always head.version+1), which is what keeps
// replay deterministic. A read-only server answers with CodeReadOnly.
func (c *Client) Commit() (*wire.CommitResult, error) {
	typ, payload, err := c.request(wire.TypeCommit, nil)
	if err != nil {
		return nil, err
	}
	if typ != wire.TypeCommitResult {
		return nil, asServerError(typ, payload)
	}
	return wire.DecodeCommitResult(payload)
}

// Stats fetches the server's counters snapshot.
func (c *Client) Stats() (*wire.Stats, error) {
	typ, payload, err := c.request(wire.TypeStatsReq, nil)
	if err != nil {
		return nil, err
	}
	if typ != wire.TypeStats {
		return nil, asServerError(typ, payload)
	}
	return wire.DecodeStats(payload)
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	typ, payload, err := c.request(wire.TypePing, nil)
	if err != nil {
		return err
	}
	if typ != wire.TypePong {
		return asServerError(typ, payload)
	}
	return nil
}
