package core

import (
	"fmt"
	"sync"
)

// This file is the parallel experiment scheduler. Elapsed time is
// *simulated* — every Dataset carries its own meter (internal/sim) whose
// counters are priced under the cost model, never the wall clock — so running
// experiments concurrently cannot change a single reported number: the
// tables are bit-identical at any worker count. Concurrency is bounded by
// three locks: dataset generation is singleflight per database, a
// per-dataset run lock serializes engine use (meter, caches, disk are
// single-threaded), and the join-run memo is a synchronized map. Tables
// are emitted strictly in the requested order as soon as each experiment
// and all its predecessors have finished.

// outcome is one experiment's result slot.
type outcome struct {
	table *Table
	err   error
}

// RunMany executes the given experiments, at most jobs at a time, calling
// emit exactly once per experiment in the ids' order (each table is
// emitted as soon as it and every earlier table are ready). Unknown ids
// are rejected before anything runs. On an experiment or emit error the
// scheduler stops handing out new work, drains the in-flight experiments,
// and returns the error of the earliest failed id — the same error a
// sequential run would have reported.
func (r *Runner) RunMany(ids []string, jobs int, emit func(*Table) error) error {
	if jobs < 1 {
		return fmt.Errorf("core: jobs %d < 1", jobs)
	}
	exps := make([]ExperimentInfo, len(ids))
	for i, id := range ids {
		e, ok := experimentsByID()[id]
		if !ok {
			return unknownExperiment(id)
		}
		exps[i] = e
	}
	if jobs > len(exps) {
		jobs = len(exps)
	}

	outs := make([]outcome, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	work := make(chan int)
	stop := make(chan struct{})
	var stopOnce sync.Once

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				e := exps[i]
				view := r.withExperiment(e.ID)
				view.jobsInUse = jobs
				t, err := e.Run(view)
				if err != nil {
					err = fmt.Errorf("%s: %w", e.ID, err)
					stopOnce.Do(func() { close(stop) })
				}
				outs[i] = outcome{table: t, err: err}
				close(done[i])
			}
		}()
	}
	go func() {
		defer close(work)
		for i := range exps {
			select {
			case work <- i:
			case <-stop:
				// Close the never-started slots so the emit loop below can
				// drain every index without blocking.
				for ; i < len(exps); i++ {
					close(done[i])
				}
				return
			}
		}
	}()

	var firstErr error
	for i := range exps {
		<-done[i]
		if firstErr != nil {
			continue
		}
		switch {
		case outs[i].err != nil:
			firstErr = outs[i].err
			stopOnce.Do(func() { close(stop) })
		case outs[i].table != nil:
			if err := emit(outs[i].table); err != nil {
				firstErr = err
				stopOnce.Do(func() { close(stop) })
			}
		}
	}
	wg.Wait()
	return firstErr
}
