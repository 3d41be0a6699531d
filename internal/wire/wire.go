// Package wire is treebenchd's client/server protocol: length-prefixed
// binary frames carrying typed OQL requests and responses. The paper's O2
// is a client–server ODBMS (4 MB server / 32 MB client caches talking RPC);
// this protocol restores that missing boundary around the simulated engine
// so multi-client workloads can drive one daemon.
//
// A frame is [type:1][length:4 big-endian][payload]; payloads are written
// with internal/codec, the encoder the snapshot file and the WAL record
// share. A connection starts with a Hello/ServerHello exchange pinning the
// protocol version, then carries any number of request/response pairs
// (Query→Result|Error, Ping→Pong, StatsReq→Stats). The Result message is the neutral form both the local
// shell and the remote client render through session.WriteResult, which is
// what makes remote output byte-identical to oqlsh.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Version is the protocol version exchanged in the Hello handshake.
// v2 added Stats.SnapshotSource (snapshot provenance).
// v3 added Stats.PlanCacheHits/PlanCacheMisses (plan-cache hit rate).
// v4 added chosen-plan provenance (Stats.PlansCost/PlansHeuristic/
// BatchSize/LastOperator).
// v5 added distributed execution: shard identity in ServerHello and Stats,
// request/reply frames for shard-sliced queries, and the coordinator's
// per-shard stats view.
// v6 added the write path: Commit/CommitResult frames for update-wave
// commits against a WAL-backed MVCC chain, chain + WAL counters in Stats,
// and CodeReadOnly for commit attempts against a store-less server.
// v7 added pluggable index backends: Stats.IndexBackend plus the bloom /
// SSTable / compaction / pages-written backend counters.
// v8 added the shared buffer pool: Stats.Pool* counters (hits, misses,
// evictions, readahead issued/used/wasted, resident/capacity frames).
// v9 made the Stats payload self-describing (name, kind and value per
// field): a new Stats counter no longer needs a version bump.
// v10 retired distributed execution: its four frame types (0x0A–0x0D
// stay unassigned), its error code (6, likewise), and the shard identity
// and snapshot key in ServerHello and Stats.
// v11 changed one Result counter's meaning: the sort counter, now
// SortSteps, records n·⌈log₂n⌉ per sort of n elements instead of n, so
// simulated time is the counters' price.
const Version uint32 = 11

// MaxPayload bounds a frame's payload; larger length prefixes are rejected
// before any allocation (a malformed or hostile peer cannot make us
// allocate 4 GB).
const MaxPayload = 16 << 20

// Frame types.
const (
	// TypeHello opens a connection (client → server).
	TypeHello byte = 0x01
	// TypeServerHello acknowledges the handshake (server → client).
	TypeServerHello byte = 0x02
	// TypeQuery asks the server to execute one OQL statement.
	TypeQuery byte = 0x03
	// TypeResult carries an executed query's outcome.
	TypeResult byte = 0x04
	// TypeError reports a failed request.
	TypeError byte = 0x05
	// TypePing and TypePong are the liveness probe.
	TypePing byte = 0x06
	TypePong byte = 0x07
	// TypeStatsReq asks for the server's counters snapshot.
	TypeStatsReq byte = 0x08
	// TypeStats carries the snapshot.
	TypeStats byte = 0x09
	// TypeCommit asks the server to apply and durably commit the next
	// update wave on its MVCC chain (client → server, v6). The payload is
	// empty: the wave applied is always head.version+1, a pure function of
	// the server's wave spec — clients cannot choose what to write, only
	// that a write happens, which is what keeps replay deterministic.
	TypeCommit byte = 0x0E
	// TypeCommitResult carries the committed version's lineage and the
	// wave's physical effects (server → client, v6).
	TypeCommitResult byte = 0x0F
)

// Error codes carried by TypeError.
const (
	// CodeQuery is a query parse/plan/execution error.
	CodeQuery byte = 1
	// CodeBusy means admission control rejected the query (queue full).
	CodeBusy byte = 2
	// CodeTimeout means the query exceeded the server's per-query budget.
	CodeTimeout byte = 3
	// CodeShutdown means the server is draining and takes no new queries.
	CodeShutdown byte = 4
	// CodeProto is a protocol violation (bad frame, bad handshake).
	CodeProto byte = 5
	// CodeReadOnly means the server has no WAL-backed chain store and
	// rejects commits (v6).
	CodeReadOnly byte = 7
)

const frameHeaderLen = 5

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds %d", len(payload), MaxPayload)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r, enforcing MaxPayload.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("wire: frame length %d exceeds %d", n, MaxPayload)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}
