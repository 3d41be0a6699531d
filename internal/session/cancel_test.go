package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"treebench/internal/derby"
	"treebench/internal/join"
)

// countdown is a context that stops an execution at an exact boundary. Its
// Done channel is always closed, so every check the engine makes consults
// Err, and Err answers nil for the first k checks and DeadlineExceeded from
// then on. calls counts the checks.
type countdown struct {
	context.Context
	k     int64
	calls atomic.Int64
}

var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (c *countdown) Done() <-chan struct{} { return closedDone }

func (c *countdown) Err() error {
	if c.calls.Add(1) > c.k {
		return context.DeadlineExceeded
	}
	return nil
}

// cancelCase runs one statement on a fresh fork of the snapshot under ctx
// at the given worker count and renders what it returned.
type cancelCase struct {
	name string
	run  func(ctx context.Context, jobs int) (string, error)
}

// cancelCases are batchStatements through ExecuteRows, and the paper's
// tree query forced onto each of the seven join algorithms: the chunked
// ones at 50/50, where every phase fans out, and the record-at-a-time ones
// at 1/5, which they check once per outer row.
func cancelCases(sn *derby.Snapshot) []cancelCase {
	var cases []cancelCase
	for _, stmt := range batchStatements {
		cases = append(cases, cancelCase{stmt, func(ctx context.Context, jobs int) (string, error) {
			f := sn.Fork()
			f.DB.SetQueryJobs(jobs)
			res, err := New(f.DB).ExecuteRows(ctx, stmt, 10)
			if err != nil {
				return fmt.Sprint(res), err
			}
			var out strings.Builder
			WriteResult(&out, ToWire(res, 10), 10)
			return out.String(), nil
		}})
	}
	for _, algo := range []join.Algorithm{join.NL, join.PHJ, join.CHJ, join.SMJ, join.NOJOIN, join.VNOJOIN, join.HHJ} {
		selChildren, selParents := 50, 50
		if algo == join.NOJOIN || algo == join.VNOJOIN || algo == join.HHJ {
			selChildren, selParents = 1, 5
		}
		cases = append(cases, cancelCase{string(algo), func(ctx context.Context, jobs int) (string, error) {
			f := sn.Fork()
			f.DB.SetQueryJobs(jobs)
			f.DB.ColdRestart()
			env := join.EnvForDerby(f)
			f.DB.SetContext(ctx)
			defer f.DB.SetContext(context.Background())
			res, err := join.Run(env, algo, env.BySelectivity(selChildren, selParents))
			if err != nil {
				return fmt.Sprint(res), err
			}
			return fmt.Sprintf("%+v", *res), nil
		}})
	}
	return cases
}

// TestCancelAtEveryBoundary stops every batched statement and every join
// algorithm at each boundary the engine checks, at -qj 1 and 8. For every
// k the run, each on a fresh fork, either returns the context's error and
// no result, or renders exactly the reference; and after all those stops
// the next run on a fresh fork renders the reference — a stopped query
// leaves nothing behind in the snapshot it forked from.
func TestCancelAtEveryBoundary(t *testing.T) {
	d, err := derby.Generate(derby.DefaultConfig(200, 100, derby.ClassCluster))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := d.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cancelCases(sn) {
		for _, jobs := range []int{1, 8} {
			want, err := c.run(context.Background(), jobs)
			if err != nil {
				t.Fatalf("%s qj=%d: %v", c.name, jobs, err)
			}
			all := &countdown{Context: context.Background(), k: math.MaxInt64}
			if got, err := c.run(all, jobs); err != nil || got != want {
				t.Fatalf("%s qj=%d: an unfired context changed the run: %v\n%s", c.name, jobs, err, firstDiff(got, want))
			}
			n := all.calls.Load()
			if n == 0 {
				t.Fatalf("%s qj=%d: the engine checked its context nowhere", c.name, jobs)
			}
			for k := int64(0); k <= n; k++ {
				got, err := c.run(&countdown{Context: context.Background(), k: k}, jobs)
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					if got != "<nil>" {
						t.Fatalf("%s qj=%d k=%d: a stopped run returned a result: %s", c.name, jobs, k, got)
					}
				case err != nil:
					t.Fatalf("%s qj=%d k=%d: %v", c.name, jobs, k, err)
				case got != want:
					t.Fatalf("%s qj=%d k=%d: a run that outlasted its countdown diverged\n%s", c.name, jobs, k, firstDiff(got, want))
				}
			}
			// n stops later, a fresh fork still renders the reference.
			if after, err := c.run(context.Background(), jobs); err != nil || after != want {
				t.Fatalf("%s qj=%d: the run after the stops diverged: %v\n%s", c.name, jobs, err, firstDiff(after, want))
			}
		}
	}
}
