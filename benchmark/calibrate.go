package main

import (
	"math/rand"
	"slices"
	"time"
)

// The VM this benchmark was built on shares its host with other tenants,
// and its speed drifts by half for minutes at a time, far beyond any
// regression bound. So every reported time is scaled to a reference host
// speed: the benchmark times a fixed calibration unit (a sort of 16,384
// fixed pseudo-random integers, code that calls nothing in the
// repository) after every set-up and between operations, and multiplies
// each time it measures by calibrationRef over the unit's median in the
// same phase of the run. A change to the repository moves scaled times as
// much as raw ones; a slower host moves them much less (README.md gives
// the numbers). Standard error carries the raw times.

// calibrationRef is the calibration unit's median time on the reference
// VM (2 vCPUs of an Intel Xeon at 2.0 GHz) when the host is quiet.
const calibrationRef = 1200 * time.Microsecond

// calibrationEvery spaces the samples taken during the measured loop.
const calibrationEvery = 200 * time.Millisecond

var (
	calibrationInput = func() []uint32 {
		rng := rand.New(rand.NewSource(1))
		s := make([]uint32, 1<<14)
		for i := range s {
			s[i] = rng.Uint32()
		}
		return s
	}()
	calibrationWork = make([]uint32, len(calibrationInput))
)

// calibration collects the calibration unit's times over one phase of a
// run.
type calibration struct {
	samples []time.Duration
	last    time.Time
	spent   time.Duration // total time spent sampling
}

// due reports whether calibrationEvery has passed since the last sample.
func (c *calibration) due() bool { return time.Since(c.last) >= calibrationEvery }

// sample times one calibration unit.
func (c *calibration) sample() {
	start := time.Now()
	copy(calibrationWork, calibrationInput)
	slices.Sort(calibrationWork)
	c.last = time.Now()
	d := c.last.Sub(start)
	c.samples = append(c.samples, d)
	c.spent += d
}

// factor is what a time measured during the phase is multiplied by to
// express it at the reference host speed (1 without samples).
func (c *calibration) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return float64(calibrationRef) / float64(quantile(c.samples, 0.5))
}
