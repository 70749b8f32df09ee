//go:build race

package main

// raceEnabled reports whether this test binary was built with the race
// detector; timing-shape assertions skip under it, as in internal/bench.
const raceEnabled = true
