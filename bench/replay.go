package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"treebench/internal/derby"
	"treebench/internal/engine"
	"treebench/internal/oql"
	"treebench/internal/persist"
	"treebench/internal/session"
	"treebench/internal/wal"
	"treebench/internal/wire"
)

// replayer is a replica of the daemon's request path built only from the
// layers' public calls, with no daemon and no socket: one span around each
// call, all under a per-request root span "req". What happens below
// oql.execute is not visible from out here; the probes cover it.
type replayer struct {
	tr   *tracer
	snap *derby.Snapshot // what read-only sessions fork from
	ch   *chainReplica   // non-nil when the workload commits
	sess *session.Session
	sock bytes.Buffer // stands in for the TCP connection
	out  bytes.Buffer // the client's rendering
}

// chainReplica holds what persist.ChainStore.Update works on, so that the
// replay can take Update's six steps one span at a time.
type chainReplica struct {
	book  *derby.Snapshot
	chain *engine.Chain
	log   *wal.Log
	spec  derby.WaveSpec
}

func waveSpec() derby.WaveSpec {
	spec := derby.DefaultWaveSpec()
	spec.GrowEvery = waveGrowEvery
	spec.Seed = dataSeed
	return spec
}

func newChainReplica(root *derby.Snapshot, walPath string) (*chainReplica, error) {
	log, _, err := wal.Open(walPath, nil)
	if err != nil {
		return nil, err
	}
	return &chainReplica{book: root, chain: engine.NewChain(root.Engine), log: log, spec: waveSpec()}, nil
}

func (rp *replayer) head() *derby.Snapshot {
	if rp.ch != nil {
		return rp.ch.book.WithEngine(rp.ch.chain.Head())
	}
	return rp.snap
}

// forkSession is the fork a connection pays on its first query and after
// each of its commits.
func forkSession(sn *derby.Snapshot) *session.Session {
	return session.NewWith(sn.Fork().DB, session.Config{PlanCache: oql.NewPlanCache(0)})
}

// query takes one statement through the steps of client.Query,
// server.conn.query and the client's renderer.
func (rp *replayer) query(stmt string) error {
	tr := rp.tr
	req := tr.begin("req")
	defer tr.end(req)

	id := tr.begin("wire.encode_query")
	err := wire.WriteFrame(&rp.sock, wire.TypeQuery, (&wire.Query{Stmt: stmt, MaxRows: maxRows}).Encode())
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("wire.decode_query")
	_, payload, err := wire.ReadFrame(&rp.sock)
	var q *wire.Query
	if err == nil {
		q, err = wire.DecodeQuery(payload)
	}
	tr.end(id)
	if err != nil {
		return err
	}

	if rp.sess == nil {
		id = tr.begin("session.fork")
		rp.sess = forkSession(rp.head())
		tr.end(id)
	}
	sess := rp.sess

	id = tr.begin("engine.cold_restart")
	sess.DB.ColdRestart()
	tr.end(id)

	hits0, _ := sess.Planner.Cache.Stats()
	id = tr.begin("oql.plan_miss")
	plan, err := sess.Planner.PlanSource(q.Stmt)
	tr.end(id)
	if err != nil {
		return err
	}
	if hits1, _ := sess.Planner.Cache.Stats(); hits1 > hits0 {
		tr.rename(id, "oql.plan_hit")
	}

	id = tr.begin("oql.execute")
	res, err := sess.Planner.Execute(plan)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("session.to_wire")
	wr := session.ToWire(res, int(q.MaxRows))
	tr.end(id)

	id = tr.begin("wire.encode_result")
	payload = wr.Encode()
	err = wire.WriteFrame(&rp.sock, wire.TypeResult, payload)
	tr.end(id)
	if err != nil {
		return err
	}
	tr.count("wire.result_bytes", float64(len(payload)))

	id = tr.begin("wire.decode_result")
	_, payload, err = wire.ReadFrame(&rp.sock)
	var back *wire.Result
	if err == nil {
		back, err = wire.DecodeResult(payload)
	}
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("session.render")
	rp.out.Reset()
	session.WriteResult(&rp.out, back, maxRows)
	tr.end(id)
	return nil
}

// commit takes the steps of persist.ChainStore.Update, then drops the
// session as server.conn.commit does, so the next query forks from the
// new head.
func (rp *replayer) commit() error {
	tr, ch := rp.tr, rp.ch
	req := tr.begin("req.commit")
	defer tr.end(req)

	parent := ch.chain.Head()
	version := parent.Version() + 1

	id := tr.begin("engine.fork_mutable")
	d := ch.book.WithEngine(parent).ForkMutable()
	tr.end(id)

	id = tr.begin("derby.apply_wave")
	_, err := derby.ApplyWave(d, version, ch.spec)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("engine.publish")
	sn, delta, err := d.DB.Publish()
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("persist.encode_commit")
	payload := persist.EncodeCommit(version, version, delta, ch.book.WithEngine(sn).State())
	tr.end(id)

	id = tr.begin("wal.enqueue")
	p, err := ch.log.Enqueue(payload)
	tr.end(id)
	if err != nil {
		return err
	}
	sn.SetLineage(version, delta.Pages(), p.Off)
	if err := ch.chain.Append(sn); err != nil {
		return err
	}

	id = tr.begin("wal.wait")
	err = p.Wait()
	tr.end(id)
	if err != nil {
		return err
	}
	rp.sess = nil
	return nil
}

// replayed is the outcome of a workload's three replay passes.
type replayed struct {
	ops, commits int
	stmts        []string // distinct statements, in first-use order
	offS, onS    float64  // wall time of the pass without and with the recorder
	on           *tracer  // timing pass
	mem          *tracer  // allocation pass, over the first memOps ops
}

// replay takes connection 0's first nOps ops through the replica three
// times, each from a fresh session: recorder on with heap readings over a
// tenth of the ops (allocations), recorder off (the baseline of
// trace.overhead_ratio), and recorder on (self times).
func (r *runner) replay(w workload, seed int64, snap *derby.Snapshot, nOps int) (*replayed, error) {
	st := newStream(w, r.sc, seed, 0)
	ops := make([]op, nOps)
	rep := &replayed{ops: nOps}
	seen := make(map[string]bool)
	for i := range ops {
		ops[i] = st.Next()
		if ops[i].commit {
			rep.commits++
		} else if !seen[ops[i].stmt] {
			seen[ops[i].stmt] = true
			rep.stmts = append(rep.stmts, ops[i].stmt)
		}
	}
	pass := func(tr *tracer, ops []op) (float64, error) {
		rp := &replayer{tr: tr, snap: snap}
		if w.commitShare > 0 {
			walPath := filepath.Join(r.work, "replay.wal")
			defer os.Remove(walPath)
			ch, err := newChainReplica(snap, walPath)
			if err != nil {
				return 0, err
			}
			defer ch.log.Close()
			rp.ch = ch
		}
		t0 := time.Now()
		for _, o := range ops {
			var err error
			if o.commit {
				err = rp.commit()
			} else {
				err = rp.query(o.stmt)
			}
			if err != nil {
				return 0, fmt.Errorf("replay %s: %w", w.name, err)
			}
		}
		return time.Since(t0).Seconds(), nil
	}
	const spansPerOp = 12
	memOps := nOps / 10
	if memOps < 30 && nOps >= 30 {
		memOps = 30
	}
	// The short allocation pass goes first and doubles as the warm-up, so
	// the two timed passes start from the same heap and page residency.
	var err error
	rep.mem = newTracer(true, memOps*spansPerOp)
	if _, err = pass(rep.mem, ops[:memOps]); err != nil {
		return nil, err
	}
	if rep.offS, err = pass(&tracer{}, ops); err != nil {
		return nil, err
	}
	rep.on = newTracer(false, nOps*spansPerOp)
	if rep.onS, err = pass(rep.on, ops); err != nil {
		return nil, err
	}
	return rep, nil
}
