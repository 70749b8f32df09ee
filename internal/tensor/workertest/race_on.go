//go:build race

package workertest

// Race reports whether the binary was built with the race detector, under
// which the training-length tests skip themselves.
const Race = true
