// Package cache implements O2's two-level buffer management: a server page
// cache in front of the disk and a client page cache in front of the
// server, talking over a metered RPC boundary (§2 runs both on one
// machine, so an RPC is cheap but counted).
//
// The caches simulate traffic, not buffer copies: the meter records the
// events the paper's Figure 3 schema reports (client faults, RPC count
// and volume, server-to-client and disk-to-server page movements, miss
// rates). Entries hold no buffers at all — they are pure
// residency/recency bookkeeping; a hit re-fetches the canonical buffer
// from the storage layer below, meter-free. Keeping the entries
// bufferless is what lets the process-wide buffer pool (internal/bufpool)
// bound RSS and reuse evicted frames: if every session's simulated LRU
// aliased page buffers, a pool frame could never be reused while any
// session had it cached. Eviction of a dirty page charges the write path
// below it.
//
// The server is where a session's reads reach the pool, so it owns the
// session's bufpool.Reader: every read below it is named, and Quiesce and
// Offline are how the session tells the pool it holds no page buffer.
//
// An entry is 16 bytes in the slab of one LRU (lru.go): admitting a page
// is not an allocation, and a cold restart (Shutdown) empties both levels
// but keeps their memory, because the paper's discipline restarts before
// every measured query and the next query refills what this one drained.
// The same LRU type serves oql.PlanCache.
package cache

import (
	"sync"

	"treebench/internal/bufpool"
	"treebench/internal/sim"
	"treebench/internal/storage"
)

// pageLRU is the residency index of one cache level: page id → dirty bit.
type pageLRU = LRU[storage.PageID, bool]

func newPageLRU(capacityBytes int64) *pageLRU {
	return NewLRU[storage.PageID, bool](int(capacityBytes / storage.PageSize))
}

// Server is the server-side page cache in front of the disk. It implements
// storage.Pager.
//
// A Server may be shared by concurrent readers (parallel query chunks, or
// several clients of one daemon): mu serializes every public method, since
// even a read hit mutates LRU recency, and the meter charges happen under
// the same lock. The Client below stays single-owner — each session or
// chunk fork builds its own.
type Server struct {
	disk   *storage.Disk
	meter  *sim.Meter
	reader bufpool.Reader // names every disk read to the buffer pool
	mu     sync.Mutex
	lru    *pageLRU
}

// NewServer returns a server cache of capacityBytes over disk, charging
// events to meter.
func NewServer(disk *storage.Disk, meter *sim.Meter, capacityBytes int64) *Server {
	return &Server{
		disk:  disk,
		meter: meter,
		lru:   newPageLRU(capacityBytes),
	}
}

// Quiesce tells the buffer pool that the server's owner holds no buffer
// a read returned: the pool may reuse frames evicted before now. The
// server has one reader, so the caller speaks for every goroutine that
// reads through it.
func (s *Server) Quiesce() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reader.Quiesce()
}

// Offline is Quiesce until the next read: the owner holds no buffer and
// holds the pool back from no reuse while it reads nothing.
func (s *Server) Offline() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reader.Offline()
}

// Read implements storage.Pager: a hit is free, a miss reads from disk.
// The returned buffer is always the canonical storage-layer copy; on a
// hit it is re-fetched meter-free (the entries are bufferless — see the
// package comment), which on a pool-backed base may transparently
// re-fault an evicted page at real-I/O cost only.
func (s *Server) Read(id storage.PageID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.lru.Get(id); ok {
		s.meter.ServerHit()
		return s.disk.ReadAs(&s.reader, id)
	}
	buf, err := s.disk.ReadAs(&s.reader, id)
	if err != nil {
		return nil, err
	}
	s.meter.DiskRead()
	s.admit(id, false)
	return buf, nil
}

// Buffer returns page id's canonical buffer without charging the meter
// or touching recency — the data path behind a simulated *client* hit,
// where the traffic model says nothing moved but the caller still needs
// the bytes.
func (s *Server) Buffer(id storage.PageID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk.ReadAs(&s.reader, id)
}

// Write implements storage.Pager: marks the page dirty in the cache.
func (s *Server) Write(id storage.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if dirty := s.lru.Peek(id); dirty != nil {
		*dirty = true
		return nil
	}
	// Page not resident (e.g. handed straight down from a client
	// eviction): pull it in dirty.
	if _, err := s.disk.ReadAs(&s.reader, id); err != nil {
		return err
	}
	s.admit(id, true)
	return nil
}

// Alloc implements storage.Pager. The fresh page is resident and dirty.
func (s *Server) Alloc() (storage.PageID, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, buf, err := s.disk.Alloc()
	if err != nil {
		return 0, nil, err
	}
	s.admit(id, true)
	return id, buf, nil
}

func (s *Server) admit(id storage.PageID, dirty bool) {
	if _, evDirty, _ := s.lru.Put(id, dirty); evDirty {
		s.meter.DiskWrite()
	}
}

// Flush writes every dirty resident page to disk, leaving the cache warm.
func (s *Server) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru.Each(s.writeOut)
}

// Shutdown flushes and empties the cache (the paper's cold restart between
// measured queries).
func (s *Server) Shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru.Drain(s.writeOut)
}

// writeOut charges the disk write of a dirty resident page and marks it
// clean.
func (s *Server) writeOut(_ storage.PageID, dirty *bool) {
	if *dirty {
		*dirty = false
		s.meter.DiskWrite()
	}
}

// Resident returns the number of cached pages.
func (s *Server) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Client is the client-side page cache. Every miss is one RPC to the
// server carrying one page back; scan operators can additionally batch
// their upcoming pages into one RPC via Prefetch. It implements
// storage.Pager and is what the object layer and indexes run on.
type Client struct {
	server *Server
	meter  *sim.Meter
	lru    *pageLRU

	// readAhead is the batch size Prefetch-aware scans use; 1 disables
	// prefetching.
	readAhead int
}

// NewClient returns a client cache of capacityBytes over srv.
func NewClient(srv *Server, meter *sim.Meter, capacityBytes int64) *Client {
	return &Client{
		server:    srv,
		meter:     meter,
		lru:       newPageLRU(capacityBytes),
		readAhead: 1,
	}
}

// SetReadAhead sets the batch size Prefetch-aware scans use (n ≤ 1
// disables prefetching). O2 itself fetched page by page; batching is the
// obvious follow-up to the paper's observation that cache tuning "reduces
// both IOs and RPCs".
func (c *Client) SetReadAhead(n int) {
	if n < 1 {
		n = 1
	}
	c.readAhead = n
}

// ReadAheadBatch reports the configured prefetch batch size (≥1); scan
// operators use it to size their Prefetch calls.
func (c *Client) ReadAheadBatch() int { return c.readAhead }

// Prefetch pulls the non-resident pages of ids into the cache with a
// single RPC. Scan operators call it with the pages they are about to
// read; unlike blind sequential read-ahead, nothing is fetched that the
// caller did not ask for.
func (c *Client) Prefetch(ids []storage.PageID) {
	fetched := 0
	for _, id := range ids {
		if c.lru.Peek(id) != nil {
			continue
		}
		if _, err := c.server.Read(id); err != nil {
			continue
		}
		c.meter.ServerToClient()
		c.admit(id, false)
		fetched++
	}
	if fetched > 0 {
		c.meter.RPC(fetched * storage.PageSize)
	}
}

// Costs exposes the session meter this client charges, so structures
// driven through the Pager interface (index backends) can charge
// CPU-level events — comparisons, bloom probes — to the same fork that
// pays for the page I/O (the index.CostSource hook).
func (c *Client) Costs() *sim.Meter { return c.meter }

// Read implements storage.Pager. Like the server, a hit returns the
// canonical storage-layer buffer fetched meter-free; only the simulated
// traffic differs between hit and miss.
func (c *Client) Read(id storage.PageID) ([]byte, error) {
	if _, ok := c.lru.Get(id); ok {
		c.meter.ClientHit()
		return c.server.Buffer(id)
	}
	c.meter.ClientFault()
	c.meter.RPC(storage.PageSize)
	buf, err := c.server.Read(id)
	if err != nil {
		return nil, err
	}
	c.meter.ServerToClient()
	c.admit(id, false)
	return buf, nil
}

// Write implements storage.Pager: marks the page dirty client-side. The
// write travels to the server when the page is evicted or flushed.
func (c *Client) Write(id storage.PageID) error {
	if dirty := c.lru.Peek(id); dirty != nil {
		*dirty = true
		return nil
	}
	// Not resident: fetch, then dirty.
	if _, err := c.Read(id); err != nil {
		return err
	}
	*c.lru.Peek(id) = true
	return nil
}

// Alloc implements storage.Pager.
func (c *Client) Alloc() (storage.PageID, []byte, error) {
	c.meter.RPC(64) // allocation request
	id, buf, err := c.server.Alloc()
	if err != nil {
		return 0, nil, err
	}
	c.admit(id, true)
	return id, buf, nil
}

func (c *Client) admit(id storage.PageID, dirty bool) {
	if evicted, evDirty, _ := c.lru.Put(id, dirty); evDirty {
		c.writeBack(evicted)
	}
}

func (c *Client) writeBack(id storage.PageID) {
	c.meter.RPC(storage.PageSize)
	// Data is shared in-process; only the traffic is simulated. The
	// server's Write pulls the page into its cache dirty if needed.
	_ = c.server.Write(id)
}

// writeOut sends a dirty resident page to the server and marks it clean.
func (c *Client) writeOut(id storage.PageID, dirty *bool) {
	if *dirty {
		*dirty = false
		c.writeBack(id)
	}
}

// Flush pushes every dirty client page to the server and flushes the
// server to disk.
func (c *Client) Flush() {
	c.lru.Each(c.writeOut)
	c.server.Flush()
}

// Shutdown flushes and empties both cache levels (cold restart).
func (c *Client) Shutdown() {
	c.lru.Drain(c.writeOut)
	c.server.Shutdown()
}

// Resident returns the number of client-resident pages.
func (c *Client) Resident() int { return c.lru.Len() }

// Hierarchy builds the standard disk→server→client stack for one session.
func Hierarchy(disk *storage.Disk, meter *sim.Meter, machine sim.Machine) (*Server, *Client) {
	srv := NewServer(disk, meter, machine.ServerCache)
	cli := NewClient(srv, meter, machine.ClientCache)
	return srv, cli
}
