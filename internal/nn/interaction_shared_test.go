package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestSharedInteractionMatchesForwardBitForBit: ForwardShared once per group
// plus FillVarying per row must reproduce, bit for bit, Interaction.Forward
// on the batch that replicates each group's shared features across its rows
// — over interactionShapes, for the varying embedding first, in the middle
// and last, with an empty group, with chunks that start inside a group, and
// with NaN, ±Inf and −0 among the inputs (equal bits, not equal values:
// 0 != −0 here; a NaN must meet a NaN, but its sign and payload are outside
// the kernels' m-independence rule, DESIGN.md §12).
func TestSharedInteractionMatchesForwardBitForBit(t *testing.T) {
	for _, sh := range interactionShapes {
		testSharedInteraction(t, sh.dim, sh.tables)
	}
}

func testSharedInteraction(t *testing.T, dim, numTables int) {
	rowsPerGroup := []int{3, 0, 1, 6}
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0,
	}
	rng := tensor.NewRNG(11)
	random := func(rows int) *tensor.Matrix {
		m := tensor.New(rows, dim)
		rng.FillNormal(m.Data, 1)
		for i := range m.Data {
			if rng.Intn(6) == 0 {
				m.Data[i] = specials[rng.Intn(len(specials))]
			}
		}
		return m
	}
	total := 0
	var group []int
	for g, n := range rowsPerGroup {
		total += n
		for i := 0; i < n; i++ {
			group = append(group, g)
		}
	}
	replicate := func(shared *tensor.Matrix) *tensor.Matrix {
		out := tensor.New(total, dim)
		for s, g := range group {
			copy(out.Row(s), shared.Row(g))
		}
		return out
	}

	it := NewInteraction(dim, numTables) // one layer throughout: later passes reuse its scratch
	var tmpl, ctx, out *tensor.Matrix
	for _, vary := range []int{0, numTables / 2, numTables - 1} {
		dense := random(len(rowsPerGroup))
		embs := make([]*tensor.Matrix, numTables)
		full := make([]*tensor.Matrix, numTables)
		items := random(total)
		for tbl := range embs {
			if tbl == vary {
				full[tbl] = items
				continue // embs[vary] stays nil: the shared pass must not read it
			}
			embs[tbl] = random(len(rowsPerGroup))
			full[tbl] = replicate(embs[tbl])
		}
		want := NewInteraction(dim, numTables).Forward(replicate(dense), full)

		tmpl, ctx = it.ForwardShared(tmpl, ctx, dense, embs, vary)
		for _, chunk := range []int{total, 4, 1} {
			for lo := 0; lo < total; lo += chunk {
				hi := min(lo+chunk, total)
				item := tensor.FromSlice(hi-lo, dim, items.Data[lo*dim:hi*dim])
				out = it.FillVarying(out, tmpl, ctx, vary, item, group[lo:hi])
				for s := lo; s < hi; s++ {
					for c, w := range want.Row(s) {
						if got := out.Row(s - lo)[c]; math.Float32bits(got) != math.Float32bits(w) && (got == got || w == w) {
							t.Fatalf("dim %d tables %d vary %d chunk %d row %d col %d: %v (%#x) want %v (%#x)",
								dim, numTables, vary, chunk, s, c, got, math.Float32bits(got), w, math.Float32bits(w))
						}
					}
				}
			}
		}
	}
}
