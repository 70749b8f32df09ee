// Package hotalloc is the golden test for the hotalloc analyzer: the
// seeded violation allocates two call hops below the annotated root, so it
// is invisible to any intraprocedural walk of Step's body.
package hotalloc

var sink []float32

// Step is the hot-path root. Its own body is allocation-free; the
// violation is buried in gather → grow.
//
//elrec:hotpath golden steady-state step
func Step(buf []float32, n int) []float32 {
	return gather(buf, n)
}

// gather is hop one: still allocation-free itself.
func gather(buf []float32, n int) []float32 {
	for i := range buf {
		buf[i] = 0
	}
	return grow(buf, n)
}

// grow is hop two: the seeded transitive violation.
func grow(buf []float32, n int) []float32 {
	if cap(buf) < n {
		buf = make([]float32, n) // want "hot path must not allocate: make in hotalloc.grow .reachable from hot-path root hotalloc.Step via hotalloc.gather."
	}
	return buf[:n]
}

// warmup shows the audited escape hatch: the same allocation is fine under
// a coldpath line directive, and the function-level form removes a whole
// callee subtree from the hot region.
func warmup(n int) {
	//elrec:coldpath golden warm-up growth
	sink = make([]float32, n)
	pool(n)
}

//elrec:coldpath golden pool construction
func pool(n int) {
	sink = append(sink, make([]float32, n)...)
}

// Drive keeps warmup reachable from the root so the suppressions above are
// actually exercised by the traversal.
//
//elrec:hotpath golden root reaching suppressed sites
func Drive(n int) {
	warmup(n)
}

// kernel and leaky stand in for assembly routines: body-less declarations
// are allocation-free leaves, but only //go:noescape keeps the compiler
// from moving what their pointer arguments point to onto the heap.
//
//go:noescape
func kernel(x *float32, n int)

func leaky(x *float32, n int)

// Kernels is a hot-path root calling both stubs.
//
//elrec:hotpath golden assembly dispatch
func Kernels(buf []float32) {
	kernel(&buf[0], len(buf))
	leaky(&buf[0], len(buf)) // want "hot path must not allocate: call to assembly stub hotalloc.leaky declared without //go:noescape .its pointer arguments are forced to the heap. in hotalloc.Kernels"
}
