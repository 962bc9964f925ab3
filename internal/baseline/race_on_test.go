//go:build race

package baseline

// raceEnabled reports that the race detector is active: it instruments
// the Go XOR loop but not the assembly AND kernels, so per-gate cost
// ratios are meaningless and their floors skip.
const raceEnabled = true
