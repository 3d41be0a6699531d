package bufpool

import (
	"sync"

	"treebench/internal/storage"
)

// The process-wide pool. Every snapshot file opened by persist registers
// with the active pool, so all sessions, forks, daemons' chain stores,
// and shards in one process share frames — that is the whole point: a
// page is resident once per machine, not once per session.

// Defaults when Setup was never called.
const (
	DefaultCapacityMB = 256
	DefaultReadahead  = 32
)

var (
	gmu   sync.Mutex
	gpool *Pool
)

// Setup configures the process-wide pool: capacityMB (at least 1) of
// frames and a readahead window in pages (0 = none). Call it once at
// process start, before snapshots load; a later call replaces the pool
// for *new* registrations only (existing handles keep the old one).
// There is no disabled state: a loaded snapshot always reads through a
// pool, and internal/cli rejects -bufpool-mb below 1 before it gets here.
func Setup(capacityMB, readahead int) {
	if capacityMB < 1 {
		panic("bufpool: capacity < 1 MB")
	}
	gmu.Lock()
	defer gmu.Unlock()
	gpool = New(int64(capacityMB)<<20, storage.PageSize, readahead)
}

// Active returns the process-wide pool, creating it with the defaults on
// first use.
func Active() *Pool {
	gmu.Lock()
	defer gmu.Unlock()
	if gpool == nil {
		gpool = New(DefaultCapacityMB<<20, storage.PageSize, DefaultReadahead)
	}
	return gpool
}
