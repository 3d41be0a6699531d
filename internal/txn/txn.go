// Package txn implements the transaction discipline the paper's loading
// experiments revolve around (§3.2): a per-transaction object-creation
// budget (exceeding it is the "out of memory" failure the authors hit), a
// write-ahead log whose cost vanishes in transaction-off loading mode, and
// per-operation lock management.
//
// Loading is the transaction-off special case. Online update waves
// (derby.ApplyWave, the chain store's commit path) always run under a
// Standard-mode Manager: every operation takes a lock and every commit
// charges log pages — the simulated shadow of the real WAL append
// internal/wal performs for the same commit.
package txn

import (
	"errors"
	"fmt"

	"treebench/internal/sim"
	"treebench/internal/storage"
)

// Mode selects the transaction discipline.
type Mode int

const (
	// Standard maintains a log and read/write locks.
	Standard Mode = iota
	// NoTransaction is the loading mode: no log, no locks. "By removing
	// the need to manage a log and read/write locks, the O2
	// transaction-off mode allows to load large databases faster."
	NoTransaction
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Standard:
		return "standard"
	case NoTransaction:
		return "transaction-off"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DefaultCreateBudget is the number of objects that can be created in one
// transaction before memory runs out. The paper: "we settled for 10.000".
const DefaultCreateBudget = 10000

// ErrTxnMemory is the §3.2 '"out of memory" message that occurs when you
// create too many objects within one transaction'.
var ErrTxnMemory = errors.New("txn: out of memory: too many objects created in one transaction")

// ErrNotActive is returned for operations on a finished transaction.
var ErrNotActive = errors.New("txn: transaction not active")

// Flusher is what Commit flushes — the client cache in the real stack.
type Flusher interface {
	Flush()
}

// Manager hands out transactions over one session.
type Manager struct {
	meter        *sim.Meter
	flusher      Flusher
	mode         Mode
	createBudget int
}

// NewManager returns a manager in the given mode. A nil flusher is allowed
// (commit then only writes the log).
func NewManager(meter *sim.Meter, flusher Flusher, mode Mode) *Manager {
	return &Manager{
		meter:        meter,
		flusher:      flusher,
		mode:         mode,
		createBudget: DefaultCreateBudget,
	}
}

// SetCreateBudget overrides the per-transaction creation budget (the knob a
// "system guru" would tell you about).
func (m *Manager) SetCreateBudget(n int) { m.createBudget = n }

// Mode returns the manager's mode.
func (m *Manager) Mode() Mode { return m.mode }

// Txn is one transaction.
type Txn struct {
	mgr      *Manager
	active   bool
	created  int
	logBytes int64
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	return &Txn{mgr: m, active: true}
}

// NoteCreate records the creation of one object of recBytes, charging lock
// and log costs in standard mode and enforcing the creation budget.
func (t *Txn) NoteCreate(recBytes int) error {
	if !t.active {
		return ErrNotActive
	}
	t.created++
	if t.mgr.mode == Standard {
		t.mgr.meter.Lock()
		t.logBytes += int64(recBytes)
		if t.created > t.mgr.createBudget {
			return fmt.Errorf("%w (budget %d)", ErrTxnMemory, t.mgr.createBudget)
		}
	}
	return nil
}

// NoteUpdate records an update of recBytes (before-image plus after-image
// in the log).
func (t *Txn) NoteUpdate(recBytes int) error {
	if !t.active {
		return ErrNotActive
	}
	if t.mgr.mode == Standard {
		t.mgr.meter.Lock()
		t.logBytes += 2 * int64(recBytes)
	}
	return nil
}

// Commit forces the log (standard mode) and flushes dirty pages down the
// cache hierarchy, then ends the transaction.
func (t *Txn) Commit() error {
	if !t.active {
		return ErrNotActive
	}
	t.active = false
	if t.mgr.mode == Standard {
		logPages := (t.logBytes + storage.PageSize - 1) / storage.PageSize
		for i := int64(0); i < logPages; i++ {
			t.mgr.meter.LogWrite()
		}
	}
	if t.mgr.flusher != nil {
		t.mgr.flusher.Flush()
	}
	return nil
}
