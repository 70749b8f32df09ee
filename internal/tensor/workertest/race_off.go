//go:build !race

package workertest

// Race reports whether the binary was built with the race detector.
const Race = false
