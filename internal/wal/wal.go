// Package wal implements the durable write-ahead log behind the engine's
// commit protocol: an append-only file of length-prefixed, CRC-checked
// records with leader-based group commit.
//
// File layout (big-endian throughout):
//
//	header  "TBWL" magic (4 bytes) + uint32 format version
//	record  [uint32 payload length][uint32 CRC-32C of payload][payload]
//
// Writers enqueue records and wait; the first waiter to reach the flush
// lock becomes the leader and writes + fsyncs every record enqueued so
// far in one batch, so under concurrency many commits share one fsync
// (the group-commit ratio is Stats().Records / Stats().Syncs).
//
// Open replays every valid record and truncates a torn tail — a crash
// mid-write leaves a short or corrupt final record, never a wrong one —
// surfacing what it found as a typed *TailError rather than a panic, in
// the same corrupt-input discipline persist.Load follows.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// Magic identifies a treebench WAL file ("TBWL").
	Magic = 0x5442574C
	// Version is the log format version. Any change to the record layout
	// bumps it; Open refuses newer versions.
	Version = 1
	// HeaderLen is the size of the file header.
	HeaderLen = 8
	// recordHeaderLen prefixes every record: payload length + CRC-32C.
	recordHeaderLen = 8
	// MaxRecord bounds a single payload so a corrupt length prefix cannot
	// ask for an absurd allocation: anything larger reads as a torn tail.
	MaxRecord = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn marks a damaged log tail: the scan stopped at the last valid
// record. Errors wrapping it carry the offset and reason.
var ErrTorn = errors.New("wal: torn tail")

// ErrClosed is returned for appends to a closed log.
var ErrClosed = errors.New("wal: log closed")

// TailError reports where and why a log scan stopped before the end of
// the file. It wraps ErrTorn, so errors.Is(err, wal.ErrTorn) matches.
type TailError struct {
	Offset int64  // file offset of the damaged record
	Reason string // what was wrong with it
}

func (e *TailError) Error() string {
	return fmt.Sprintf("wal: torn tail at offset %d: %s", e.Offset, e.Reason)
}

func (e *TailError) Unwrap() error { return ErrTorn }

// Recovery summarizes what Open found in an existing log.
type Recovery struct {
	Records int        // valid records replayed
	Tail    int64      // file offset of the valid tail (appends resume here)
	Torn    *TailError // non-nil if a damaged tail was truncated away
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Records uint64 // records appended since Open
	Bytes   uint64 // payload bytes appended since Open
	Syncs   uint64 // fsync batches issued — Records/Syncs is the group-commit ratio
}

// File is what a Log needs of the file under it. *os.File is the one
// production implementation; tests wrap one to make writes and fsyncs
// fail.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	mu     sync.Mutex // guards queue, buf, tail, closed, err
	f      File
	tail   int64 // durable + enqueued end offset; next record lands here
	flush  int64 // durable end offset; buf holds [flush, tail)
	buf    []byte
	queue  []*Pending
	closed bool
	// err latches the first failed write or fsync. The failed batch left
	// the file's end unknown, so anything written after it could land
	// past a hole that replays as phantom records: every later call
	// returns err and nothing more is written.
	err error

	flushMu sync.Mutex // held by the group-commit leader
	// spare is the batch buffer not in use: each flush hands it to the
	// enqueuers and keeps the one it stole, so a steady commit stream
	// reuses two buffers instead of growing a fresh one per flush.
	// Guarded by flushMu.
	spare []byte

	records atomic.Uint64
	bytes   atomic.Uint64
	syncs   atomic.Uint64
}

// Pending is an enqueued record awaiting durability. Off/Len identify
// the record's position in the file; Wait blocks until the record (and
// every record enqueued before it) has been written and fsynced.
type Pending struct {
	log  *Log
	done chan struct{}
	err  error

	Off int64 // file offset of the record header
	Len int   // payload length
}

// Open opens (or creates) the log at path. Existing records are replayed
// in order through fn (which may be nil) and a torn tail, if any, is
// truncated so appends resume at the last valid record. Replay errors
// from fn abort the open. A log Open creates is durable, header and
// directory entry, before Open returns.
func Open(path string, fn func(off int64, payload []byte) error) (*Log, *Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	created := err == nil
	if errors.Is(err, fs.ErrExist) {
		f, err = os.OpenFile(path, os.O_RDWR, 0o644)
	}
	if err != nil {
		return nil, nil, err
	}
	l, rec, err := OpenFile(f, fn)
	if err != nil || !created {
		return l, rec, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		l.Close()
		return nil, nil, err
	}
	return l, rec, nil
}

// syncDir is SyncDir behind a variable, so a test can record when Open
// syncs, the way File lets one fail a log's writes.
var syncDir = SyncDir

// SyncDir fsyncs the directory dir. A file's own fsync makes its bytes
// durable but not its name: after creating a file in dir, or renaming one
// into it, the entry survives a crash only once dir is synced too.
// Windows cannot fsync a directory opened for reading, so there SyncDir
// does nothing.
func SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenFile is Open over a file the caller already opened read-write; the
// log owns f from here on and closes it, also when OpenFile fails.
func OpenFile(f File, fn func(off int64, payload []byte) error) (*Log, *Recovery, error) {
	rec, err := replay(f, fn)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(rec.Tail); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	l := &Log{f: f, tail: rec.Tail, flush: rec.Tail}
	return l, rec, nil
}

// Scan reads the log at path without modifying it: every valid record is
// passed to fn in order, and a damaged tail is reported in the Recovery
// rather than truncated — the read-only walk treebench-snap's chain
// verifier uses. A missing or empty file scans as zero records.
func Scan(path string, fn func(off int64, payload []byte) error) (*Recovery, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &Recovery{Tail: HeaderLen}, nil
		}
		return nil, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		return &Recovery{Tail: HeaderLen}, nil
	}
	return replay(f, fn)
}

// replay validates the header (writing a fresh one into an empty file)
// and scans records, returning the valid tail offset.
func replay(f File, fn func(off int64, payload []byte) error) (*Recovery, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		var hdr [HeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], Magic)
		binary.BigEndian.PutUint32(hdr[4:8], Version)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		return &Recovery{Tail: HeaderLen}, nil
	}
	var hdr [HeaderLen]byte
	if size < HeaderLen {
		return nil, fmt.Errorf("wal: file too short for header (%d bytes)", size)
	}
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if got := binary.BigEndian.Uint32(hdr[0:4]); got != Magic {
		return nil, fmt.Errorf("wal: bad magic %#08x", got)
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("wal: format version %d, this build reads %d", v, Version)
	}
	rec := &Recovery{Tail: HeaderLen}
	off := int64(HeaderLen)
	for off < size {
		payload, next, terr, err := readRecord(f, off, size)
		if err != nil {
			return nil, err
		}
		if terr != nil {
			rec.Torn = terr
			break
		}
		if fn != nil {
			if err := fn(off, payload); err != nil {
				return nil, fmt.Errorf("wal: replay record at offset %d: %w", off, err)
			}
		}
		rec.Records++
		rec.Tail = next
		off = next
	}
	return rec, nil
}

// readRecord reads the record at off. A record damaged in any way —
// short header, impossible length, short payload, CRC mismatch — comes
// back as a *TailError, never an I/O error or panic.
func readRecord(f io.ReaderAt, off, size int64) (payload []byte, next int64, terr *TailError, err error) {
	if size-off < recordHeaderLen {
		return nil, 0, &TailError{Offset: off, Reason: fmt.Sprintf("short record header (%d bytes)", size-off)}, nil
	}
	var hdr [recordHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return nil, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxRecord {
		return nil, 0, &TailError{Offset: off, Reason: fmt.Sprintf("record length %d exceeds limit %d", n, MaxRecord)}, nil
	}
	if size-off-recordHeaderLen < int64(n) {
		return nil, 0, &TailError{Offset: off, Reason: fmt.Sprintf("short payload (%d of %d bytes)", size-off-recordHeaderLen, n)}, nil
	}
	payload = make([]byte, n)
	if _, err := f.ReadAt(payload, off+recordHeaderLen); err != nil {
		return nil, 0, nil, err
	}
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, 0, &TailError{Offset: off, Reason: fmt.Sprintf("payload checksum mismatch (want %#08x got %#08x)", want, got)}, nil
	}
	return payload, off + recordHeaderLen + int64(n), nil, nil
}

// Enqueue appends payload to the in-memory batch and returns a Pending
// whose Wait blocks until the record is durable. Offsets are assigned in
// Enqueue order, so callers that sequence Enqueue under their own lock
// get records in exactly that order on disk.
func (l *Log) Enqueue(payload []byte) (*Pending, error) {
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("wal: record payload %d bytes exceeds limit %d", len(payload), MaxRecord)
	}
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if l.err != nil {
		l.mu.Unlock()
		return nil, l.err
	}
	p := &Pending{log: l, done: make(chan struct{}), Off: l.tail, Len: len(payload)}
	l.buf = append(l.buf, hdr[:]...)
	l.buf = append(l.buf, payload...)
	l.queue = append(l.queue, p)
	l.tail += recordHeaderLen + int64(len(payload))
	l.mu.Unlock()

	l.records.Add(1)
	l.bytes.Add(uint64(len(payload)))
	return p, nil
}

// Wait blocks until the record is durable (written and fsynced) and
// returns the write error, if any. The first waiter becomes the group-
// commit leader and flushes everything enqueued so far in one batch.
func (p *Pending) Wait() error {
	for {
		select {
		case <-p.done:
			return p.err
		default:
		}
		p.log.flushMu.Lock()
		select {
		case <-p.done: // a previous leader already flushed us
			p.log.flushMu.Unlock()
			return p.err
		default:
		}
		p.log.flushBatch()
		p.log.flushMu.Unlock()
	}
}

// Append is Enqueue + Wait: a single durable record.
func (l *Log) Append(payload []byte) (*Pending, error) {
	p, err := l.Enqueue(payload)
	if err != nil {
		return nil, err
	}
	return p, p.Wait()
}

// flushBatch steals the current batch and makes it durable with one
// write + one fsync, returning the error every record of the batch was
// completed with (for an empty batch, the latched error or nil). A batch
// stolen after a failure is completed with the latched error unwritten.
// Called with flushMu held.
func (l *Log) flushBatch() error {
	l.mu.Lock()
	buf, queue, off, err := l.buf, l.queue, l.flush, l.err
	l.buf, l.queue = l.spare[:0], nil
	l.flush = l.tail
	l.mu.Unlock()
	// The stolen buffer is the next flush's spare; flushMu keeps that
	// flush out until this one has written it.
	l.spare = buf
	if len(queue) == 0 {
		return err
	}
	if err == nil {
		if _, werr := l.f.WriteAt(buf, off); werr != nil {
			err = werr
		} else if serr := l.f.Sync(); serr != nil {
			err = serr
		}
		l.syncs.Add(1)
		if err != nil {
			l.mu.Lock()
			l.err = fmt.Errorf("wal: log refuses writes after a failed batch at offset %d: %w", off, err)
			l.mu.Unlock()
		}
	}
	for _, p := range queue {
		p.err = err
		close(p.done)
	}
	return err
}

// Sync flushes any enqueued-but-unflushed records (for shutdown and
// checkpoint paths that enqueued without waiting) and returns that
// batch's write or fsync error, or the error latched by an earlier
// failed batch. A batch another leader already flushed reported its
// error to its own waiters.
func (l *Log) Sync() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.flushBatch()
}

// Reset truncates the log back to an empty header — the checkpoint step
// after compaction has folded every committed record into a new base
// snapshot. Concurrent in-flight enqueues must be drained by the caller
// first (the chain store serializes Reset with commits).
func (l *Log) Reset() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if len(l.queue) > 0 {
		return errors.New("wal: reset with enqueued records")
	}
	if err := l.f.Truncate(HeaderLen); err != nil {
		return err
	}
	l.tail, l.flush = HeaderLen, HeaderLen
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: log refuses writes after a failed reset: %w", err)
		return l.err
	}
	return nil
}

// Tail returns the current end offset (where the next record will land).
func (l *Log) Tail() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	return Stats{Records: l.records.Load(), Bytes: l.bytes.Load(), Syncs: l.syncs.Load()}
}

// Close flushes pending records and closes the file, returning the
// flush's error ahead of the close's.
func (l *Log) Close() error {
	serr := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return serr
	}
	l.closed = true
	if err := l.f.Close(); serr == nil {
		serr = err
	}
	return serr
}
