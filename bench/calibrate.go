package main

import (
	"runtime"
	"time"
)

// The reference box is a 2-vCPU guest whose speed drifts with what its
// neighbours on the host do: the same binary serves 5 900 or 9 100 point
// queries a second in runs a quarter of an hour apart. Time-based
// end-to-end metrics are therefore reported on a calibrated clock: a run
// times a fixed loop of plain Go — integer arithmetic and random reads and
// writes over 8 MB — ten times before and ten times after each of its
// rounds, while no daemon exists, and divides its timings by how much
// slower than calRefMs the loop ran. The loop shares no code with
// treebench, so it cannot hide a regression or fake a gain; it cancels
// only what slows every program on the box alike.
//
// A run has one slowdown, the lower quartile of all its loop timings. A
// disturbance can only lengthen a loop, so the lower quartile ignores
// blips shorter than three quarters of the samples and still moves with a
// phase that lasts the whole run. (Reading the speed per round, or only
// at the window's edges, was tried: blips in the readings then added more
// noise than the correction removed.)

// calRefMs is the loop's lower-quartile duration on the reference box at
// its quietest.
const calRefMs = 8.8

// calibrator owns the loop's working set and the run's loop timings.
type calibrator struct {
	mem     []uint64
	loopsMs []float64
}

func newCalibrator() *calibrator { return &calibrator{mem: make([]uint64, 1<<20)} }

// loopMs runs the calibration loop once and returns its duration.
func (c *calibrator) loopMs() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 2_500_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.mem[(x>>33)&(1<<20-1)] += x
	}
	return float64(time.Since(t0)) / 1e6
}

// sample times ten loops. The benchmark's own collector is run to
// completion first: marking a heap next door slows the loop by half.
func (c *calibrator) sample() {
	runtime.GC()
	for i := 0; i < 10; i++ {
		c.loopsMs = append(c.loopsMs, c.loopMs())
	}
}

// slowdown is how much slower than the reference the box ran over the
// samples taken since the last call.
func (c *calibrator) slowdown() float64 {
	q := percentile(sorted(c.loopsMs), 25)
	c.loopsMs = c.loopsMs[:0]
	return q / calRefMs
}
