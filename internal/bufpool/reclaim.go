// Reclamation: a frame the pool evicts is reused, buffer and all, by a
// later miss once no reader can still hold its buffer. The scheme is
// quiescent-state-based reclamation (Hart, McKenney and Demke Brown,
// "Making lockless synchronization fast", IPDPS 2006).
//
// Readers. A named read (Handle.GetAs) belongs to a Reader: one
// goroutine's identity, which a session's server cache owns. A reader goes
// online at its first GetAs after being offline, taking a slot to announce
// in, and may then hold any buffer it was handed. Quiesce announces that,
// at this instant, it holds none; Offline announces the same and that it
// holds none until its next GetAs, and hands its slot back. Announcing
// costs a store to the slot's own cache line; going online or offline
// takes the domain's mutex once.
//
// Epochs. The process has one epoch counter and one set of readers, shared
// by every pool. An evicted frame is retired: it leaves its page table,
// is stamped with the counter's value after an increment and is queued in
// its shard's retired list. A reader announces the counter's value when it
// goes online and at every Quiesce. A retired frame may be reused once
// every online reader has announced an epoch at or past its stamp: such an
// announcement read the counter after the frame left its page table, so
// the reader cannot have loaded the frame since, and by its announcement
// it holds nothing it loaded before.
//
// Unnamed reads. Get and Resident hand out a buffer to a caller that names
// no reader (a save, a compaction, boot, the tools). Its frame is pinned:
// it is never reused, and once evicted the garbage collector reclaims it.
// Adopted frames are pinned too, because the file they came from shares
// their buffer, and Drop retires nothing.
//
// Bounds. A shard's retired list holds at most the shard's capacity in
// frames; a frame evicted past that goes to the garbage collector, as
// every evicted frame did before frames were reused. A reader that never
// quiesces, or a reader dropped while online, therefore holds back reuse
// and nothing else: the pool stays within twice its capacity and a miss
// allocates its frame and its page again. Slots are as many as readers
// were ever online at once, plus one per reader dropped while online.
package bufpool

import (
	"math"
	"sync"
	"sync/atomic"
)

// offline is the announcement of a reader that holds no buffer. It is
// above every epoch, so the minimum over announcements ignores it.
const offline = math.MaxUint64

// rescanEvery is how many evictions of a pool separate two scans of the
// readers' announcements: a miss that finds its shard's oldest retired
// frame still in its grace period allocates instead of scanning, until
// the pool has evicted this many more frames.
const rescanEvery = 16

// domain is the process's one reclamation domain.
var domain struct {
	epoch atomic.Uint64
	mu    sync.Mutex                    // serializes acquire and Offline
	slots atomic.Pointer[[]*readerSlot] // every slot ever made; read without a lock
	spare []*readerSlot                 // offline slots for the next acquire
}

// readerSlot is where one reader announces its epoch, on a cache line of
// its own so that announcing shares no line with another reader.
type readerSlot struct {
	epoch atomic.Uint64 // the last announced epoch, or offline
	_     [56]byte
}

// Reader names the goroutine a page read is for. A Reader belongs to one
// goroutine at a time; its zero value is an offline reader. A reader
// dropped while online keeps its slot and its announcement: nothing says
// the buffers it was handed are gone, so reuse stays held back.
type Reader struct {
	slot *readerSlot // r's announcement while online; nil while offline
}

// enter makes r online if it is offline: the one check a GetAs adds.
func (r *Reader) enter() {
	if r.slot == nil {
		s := acquire()
		s.epoch.Store(domain.epoch.Load())
		r.slot = s
	}
}

// Quiesce announces that r holds no buffer GetAs handed it. An offline
// reader stays offline.
func (r *Reader) Quiesce() {
	if s := r.slot; s != nil {
		if e := domain.epoch.Load(); s.epoch.Load() != e {
			s.epoch.Store(e)
		}
	}
}

// Offline announces that r holds no buffer GetAs handed it, and will hold
// none until its next GetAs, and hands r's slot to the next reader that
// goes online.
func (r *Reader) Offline() {
	s := r.slot
	if s == nil {
		return
	}
	s.epoch.Store(offline)
	r.slot = nil
	domain.mu.Lock()
	domain.spare = append(domain.spare, s)
	domain.mu.Unlock()
}

// acquire returns an offline slot listed in domain.slots.
func acquire() *readerSlot {
	domain.mu.Lock()
	defer domain.mu.Unlock()
	if n := len(domain.spare); n > 0 {
		s := domain.spare[n-1]
		domain.spare = domain.spare[:n-1]
		return s
	}
	s := &readerSlot{}
	s.epoch.Store(offline)
	var slots []*readerSlot
	if p := domain.slots.Load(); p != nil {
		slots = *p
	}
	slots = append(slots[:len(slots):len(slots)], s)
	domain.slots.Store(&slots)
	return s
}

// safeEpoch returns an epoch every frame stamped at or below may be
// reused at: the minimum of the online readers' announcements, or the
// current epoch when none is online.
func safeEpoch() uint64 {
	safe := domain.epoch.Load()
	if p := domain.slots.Load(); p != nil {
		for _, s := range *p {
			if e := s.epoch.Load(); e < safe {
				safe = e
			}
		}
	}
	return safe
}

// pin marks f, just loaded from page's table slot, as handed to an
// unnamed reader, and reports whether f is still the page's frame. A
// reuse that took f before the mark is seen here — f left the slot first
// — and the caller loads the slot again; from the mark on, f is never
// reused.
func (h *Handle) pin(page int, f *frame) bool {
	if !f.pinned.Load() {
		f.pinned.Store(true)
	}
	return h.table[page].Load() == f
}

// retireLocked queues evicted frame f for reuse, unless it is pinned or
// the shard's retired list is full. f has left its page table. Caller
// holds the shard mutex.
func (sh *shard) retireLocked(f *frame) {
	if sh.retired.n >= sh.capFrames || f.pinned.Load() {
		return
	}
	f.stamp = domain.epoch.Add(1)
	sh.retired.pushMRU(f)
}

// reuseLocked takes the shard's oldest retired frame if its grace period
// is over, and returns nil otherwise. Caller holds the shard mutex.
func (sh *shard) reuseLocked(p *Pool) *frame {
	f := sh.retired.head
	if f == nil || !p.graceOver(f.stamp) {
		return nil
	}
	sh.retired.remove(f)
	if poisonRecycled.Load() {
		for i := range f.buf {
			f.buf[i] = poisonByte
		}
	}
	p.recycled.Add(1)
	return f
}

// graceOver reports whether a frame stamped stamp may be reused. It scans
// the readers only when the last scan's answer does not settle it and the
// pool has evicted at least rescanEvery frames since.
func (p *Pool) graceOver(stamp uint64) bool {
	if stamp <= p.safe.Load() {
		return true
	}
	n := uint64(p.evictions.Load())
	if last := p.scanned.Load(); n-last < rescanEvery || !p.scanned.CompareAndSwap(last, n) {
		return false
	}
	s := safeEpoch()
	for old := p.safe.Load(); s > old && !p.safe.CompareAndSwap(old, s); old = p.safe.Load() {
	}
	return stamp <= p.safe.Load()
}

// poisonRecycled makes every reused frame's buffer read poisonByte before
// its new page is read into it, so that a reader still holding the buffer
// reads garbage it can recognize instead of a plausible page. Tests turn
// it on with PoisonRecycled.
var poisonRecycled atomic.Bool

const poisonByte = 0xDB

// PoisonRecycled turns poisoning of reused frames on or off for every
// pool in the process. It is a test seam.
func PoisonRecycled(on bool) { poisonRecycled.Store(on) }
