package sim

import "time"

// BatchCharges is the CPU-side charge multiset one vectorized batch
// accumulates before merging into the meter with a single ChargeBatch call.
// Every field mirrors one per-object Meter method; because each charge is a
// counter increment plus a fixed clock advance, n individual charges and one
// batched charge of n are byte-identical in both the counters and the clock
// (n × Advance(c) == Advance(n·c) in integer nanoseconds). This is what lets
// the batched operators keep the standing determinism invariant while paying
// one meter call per batch instead of half a dozen per object.
type BatchCharges struct {
	ScanNexts     int64
	HandleGets    int64
	HandleUnrefs  int64
	AttrGets      int64
	Compares      int64
	HashInserts   int64
	HashProbes    int64
	ResultAppends int64
	// ClientHits stands in for page re-reads the batched path skips: a
	// handle-at-a-time loop re-reads the page it is already holding (a
	// guaranteed client-cache hit on the LRU front, which charges the hit
	// counter and moves nothing), so skipping the read and counting the hit
	// is exact.
	ClientHits int64
}

// Add folds o into b (used when a batch is assembled from sub-batches).
func (b *BatchCharges) Add(o BatchCharges) {
	b.ScanNexts += o.ScanNexts
	b.HandleGets += o.HandleGets
	b.HandleUnrefs += o.HandleUnrefs
	b.AttrGets += o.AttrGets
	b.Compares += o.Compares
	b.HashInserts += o.HashInserts
	b.HashProbes += o.HashProbes
	b.ResultAppends += o.ResultAppends
	b.ClientHits += o.ClientHits
}

// ChargeBatch merges one batch's accumulated charges: counters add and the
// clock advances by the exact sum of the per-class costs, honoring the
// slim-handle model exactly like the per-object methods do. ClientHits are
// counter-only, as in ClientHit.
func (m *Meter) ChargeBatch(b BatchCharges) {
	m.N.ScanNexts += b.ScanNexts
	m.N.HandleGets += b.HandleGets
	m.N.HandleUnrefs += b.HandleUnrefs
	m.N.AttrGets += b.AttrGets
	m.N.Compares += b.Compares
	m.N.HashInserts += b.HashInserts
	m.N.HashProbes += b.HashProbes
	m.N.ResultAppends += b.ResultAppends
	m.N.ClientHits += b.ClientHits

	var d time.Duration
	if m.slimHandles {
		d += time.Duration(b.ScanNexts) * m.Model.SlimScanNext
		d += time.Duration(b.HandleGets) * m.Model.SlimHandleGet
		d += time.Duration(b.HandleUnrefs) * m.Model.SlimHandleUnref
		d += time.Duration(b.ResultAppends) * m.Model.SlimResultAppend
	} else {
		d += time.Duration(b.ScanNexts) * m.Model.ScanNext
		d += time.Duration(b.HandleGets) * m.Model.HandleGet
		d += time.Duration(b.HandleUnrefs) * m.Model.HandleUnref
		d += time.Duration(b.ResultAppends) * m.Model.ResultAppend
	}
	d += time.Duration(b.AttrGets) * m.Model.AttrGet
	d += time.Duration(b.Compares) * m.Model.Compare
	d += time.Duration(b.HashInserts) * m.Model.HashInsert
	d += time.Duration(b.HashProbes) * m.Model.HashProbe
	m.Clock.Advance(d)
}
