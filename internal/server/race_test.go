//go:build race

package server

// raceEnabled reports a -race build. The race detector slows code about
// tenfold and makes sync.Pool drop items at random, so wall-clock and
// allocation fences account for it.
const raceEnabled = true
