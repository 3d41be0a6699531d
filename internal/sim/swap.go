package sim

// Region models one large in-memory structure (a join hash table) competing
// for the machine's free RAM. While the region fits in the budget, access is
// free. Once it outgrows the budget, the OS keeps only Budget bytes
// resident, and accesses fault with probability (Size−Budget)/Size:
//
//   - a faulting random read pays a synchronous SwapRead (seek + page-in);
//   - a faulting random write only dirties a page; the OS writes it back
//     asynchronously, so it pays the much smaller SwapWrite.
//
// Fault charging is deterministic: rather than sampling, each access accrues
// the expected fractional fault and the region charges the meter every time
// a whole fault has accumulated. This keeps runs bit-reproducible.
type Region struct {
	meter  *Meter
	budget int64
	size   int64

	readDebt  float64 // accumulated fractional read faults
	writeDebt float64 // accumulated fractional write faults
}

// NewRegion returns a region charging against meter with the given resident
// budget in bytes.
func NewRegion(meter *Meter, budget int64) *Region {
	return &Region{meter: meter, budget: budget}
}

// Size returns the region's current size in bytes.
func (r *Region) Size() int64 { return r.size }

// Swapping reports whether the region has outgrown its budget.
func (r *Region) Swapping() bool { return r.size > r.budget }

// Grow extends the region by n bytes. Growth itself is free (allocation);
// the cost shows up on subsequent accesses once the region swaps.
func (r *Region) Grow(n int64) {
	if n < 0 {
		panic("sim: Region.Grow with negative size")
	}
	r.size += n
}

// missFraction is the probability that a uniformly random access faults.
func (r *Region) missFraction() float64 {
	if r.size <= r.budget || r.size == 0 {
		return 0
	}
	return float64(r.size-r.budget) / float64(r.size)
}

// RandomRead charges one uniformly random read into the region.
func (r *Region) RandomRead() {
	r.readDebt += r.missFraction()
	for r.readDebt >= 1 {
		r.readDebt--
		r.meter.SwapRead()
	}
}

// RandomWrite charges one uniformly random write into the region.
func (r *Region) RandomWrite() {
	r.writeDebt += r.missFraction()
	for r.writeDebt >= 1 {
		r.writeDebt--
		r.meter.SwapWrite()
	}
}
