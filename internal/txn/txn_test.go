package txn

import (
	"errors"
	"testing"

	"treebench/internal/sim"
)

type fakeFlusher struct{ flushes int }

func (f *fakeFlusher) Flush() { f.flushes++ }

func TestCreateBudgetEnforced(t *testing.T) {
	meter := sim.NewMeter(sim.DefaultCostModel())
	m := NewManager(meter, nil, Standard)
	m.SetCreateBudget(5)
	tx := m.Begin()
	for i := 0; i < 5; i++ {
		if err := tx.NoteCreate(60); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if err := tx.NoteCreate(60); !errors.Is(err, ErrTxnMemory) {
		t.Fatalf("sixth create: %v, want ErrTxnMemory", err)
	}
}

func TestNoTransactionModeHasNoBudgetOrLocks(t *testing.T) {
	meter := sim.NewMeter(sim.DefaultCostModel())
	m := NewManager(meter, nil, NoTransaction)
	m.SetCreateBudget(5)
	tx := m.Begin()
	for i := 0; i < 100; i++ {
		if err := tx.NoteCreate(60); err != nil {
			t.Fatalf("create %d in txn-off mode: %v", i, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if meter.N.Locks != 0 || meter.N.LogPages != 0 {
		t.Fatalf("txn-off charged locks=%d log=%d", meter.N.Locks, meter.N.LogPages)
	}
}

func TestStandardModeChargesLogAndLocks(t *testing.T) {
	meter := sim.NewMeter(sim.DefaultCostModel())
	ff := &fakeFlusher{}
	m := NewManager(meter, ff, Standard)
	tx := m.Begin()
	for i := 0; i < 100; i++ {
		if err := tx.NoteCreate(60); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.NoteUpdate(60); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if meter.N.Locks != 101 {
		t.Fatalf("Locks = %d, want 101", meter.N.Locks)
	}
	// 100×60 + 2×60 bytes = 6120 ⇒ 2 log pages.
	if meter.N.LogPages != 2 {
		t.Fatalf("LogPages = %d, want 2", meter.N.LogPages)
	}
	if ff.flushes != 1 {
		t.Fatalf("flushes = %d", ff.flushes)
	}
}

func TestLoadingFasterWithoutTransactions(t *testing.T) {
	// The §3.2 claim, in miniature: the same load is faster with the
	// log and locks off.
	load := func(mode Mode) (elapsed float64) {
		meter := sim.NewMeter(sim.DefaultCostModel())
		m := NewManager(meter, nil, mode)
		m.SetCreateBudget(10000)
		for batch := 0; batch < 5; batch++ {
			tx := m.Begin()
			for i := 0; i < 10000; i++ {
				if err := tx.NoteCreate(60); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return meter.Elapsed().Seconds()
	}
	std := load(Standard)
	off := load(NoTransaction)
	if off >= std {
		t.Fatalf("txn-off load (%vs) not faster than standard (%vs)", off, std)
	}
}

func TestFinishedTxnRejectsOperations(t *testing.T) {
	m := NewManager(sim.NewMeter(sim.DefaultCostModel()), nil, Standard)
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.NoteCreate(60); !errors.Is(err, ErrNotActive) {
		t.Fatalf("NoteCreate after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestModeString(t *testing.T) {
	if Standard.String() != "standard" || NoTransaction.String() != "transaction-off" {
		t.Fatal("mode names")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode name empty")
	}
}
