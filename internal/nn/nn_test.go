package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensor/workertest"
)

// numericGrad estimates d(loss)/d(x[idx]) by central differences where loss
// is recomputed by eval after perturbing x[idx].
func numericGrad(x []float32, idx int, eval func() float64) float64 {
	const h = 1e-3
	orig := x[idx]
	x[idx] = orig + h
	lp := eval()
	x[idx] = orig - h
	lm := eval()
	x[idx] = orig
	return (lp - lm) / (2 * h)
}

// scalarLoss reduces a matrix to 0.5·Σv² so its gradient w.r.t. the matrix
// is simply the matrix itself.
func scalarLoss(m *tensor.Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

func TestLinearForwardKnownValues(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := newLinear(2, 3, rng)
	l.W.Value.CopyFrom(tensor.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6}))
	l.B.Value.CopyFrom(tensor.FromSlice(1, 3, []float32{0.5, -0.5, 1}))
	x := tensor.FromSlice(1, 2, []float32{1, 1})
	y := l.forward(x)
	want := []float32{3.5, 6.5, 12}
	for i, v := range want {
		if math.Abs(float64(y.Data[i]-v)) > 1e-6 {
			t.Fatalf("Forward[%d] = %v want %v", i, y.Data[i], v)
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := newLinear(4, 3, rng)
	x := tensor.New(5, 4)
	rng.FillUniform(x.Data, 1)

	eval := func() float64 { return scalarLoss(l.forward(x)) }
	y := l.forward(x)
	dx := l.backward(y) // d(0.5 Σy²)/dy = y

	// Check input gradient.
	for _, idx := range []int{0, 7, 19} {
		want := numericGrad(x.Data, idx, eval)
		if got := float64(dx.Data[idx]); math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("dx[%d] = %v want %v", idx, got, want)
		}
	}
	// Check weight gradient.
	for _, idx := range []int{0, 5, 11} {
		want := numericGrad(l.W.Value.Data, idx, eval)
		if got := float64(l.W.Grad.Data[idx]); math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("dW[%d] = %v want %v", idx, got, want)
		}
	}
	// Check bias gradient.
	for idx := 0; idx < 3; idx++ {
		want := numericGrad(l.B.Value.Data, idx, eval)
		if got := float64(l.B.Grad.Data[idx]); math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("db[%d] = %v want %v", idx, got, want)
		}
	}
}

func TestLinearBackwardBeforeForwardPanics(t *testing.T) {
	l := newLinear(2, 2, tensor.NewRNG(3))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward did not panic")
		}
	}()
	l.backward(tensor.New(1, 2))
}

// TestReLU: known values through a clamped layer. Forward clamps the
// biased product at zero; Backward masks dy where the output was clamped
// before it reaches db, dW and dx.
func TestReLU(t *testing.T) {
	l := newLinear(2, 2, tensor.NewRNG(1))
	l.relu = true
	l.W.Value.CopyFrom(tensor.FromSlice(2, 2, []float32{1, 0, 0, 1}))
	l.B.Value.CopyFrom(tensor.FromSlice(1, 2, []float32{0.5, -1}))
	x := tensor.FromSlice(2, 2, []float32{-1, 3, -0.5, 1})
	y := l.forward(x) // pre-activation [-0.5 2; 0 0]
	want := []float32{0, 2, 0, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("clamped forward %v want %v", y.Data, want)
		}
	}
	dy := tensor.FromSlice(2, 2, []float32{5, 7, 5, 7})
	dx := l.backward(dy)
	for name, c := range map[string][2][]float32{
		"dx": {dx.Data, {0, 7, 0, 0}},
		"db": {l.B.Grad.Data, {0, 7}},
		"dW": {l.W.Grad.Data, {0, 0, -7, 21}},
	} {
		for i := range c[1] {
			if c[0][i] != c[1][i] {
				t.Fatalf("clamped backward %s = %v want %v", name, c[0], c[1])
			}
		}
	}
}

func TestMLPShapesAndGradCheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewMLP([]int{6, 8, 4, 1}, rng)
	x := tensor.New(3, 6)
	rng.FillUniform(x.Data, 1)
	y := m.Forward(x)
	if y.Rows != 3 || y.Cols != 1 {
		t.Fatalf("MLP output %dx%d want 3x1", y.Rows, y.Cols)
	}
	eval := func() float64 { return scalarLoss(m.Forward(x)) }
	y = m.Forward(x)
	dx := m.Backward(y)
	for _, idx := range []int{0, 9, 17} {
		want := numericGrad(x.Data, idx, eval)
		if got := float64(dx.Data[idx]); math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("MLP dx[%d] = %v want %v", idx, got, want)
		}
	}
	// Spot-check a weight gradient in the first layer.
	p := m.Params()[0]
	want := numericGrad(p.Value.Data, 3, eval)
	if got := float64(p.Grad.Data[3]); math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
		t.Fatalf("MLP dW[3] = %v want %v", got, want)
	}
}

func TestMLPNumParams(t *testing.T) {
	m := NewMLP([]int{3, 5, 1}, tensor.NewRNG(8))
	want := 3*5 + 5 + 5*1 + 1
	if got := m.numParams(); got != want {
		t.Fatalf("NumParams = %d want %d", got, want)
	}
}

func TestInteractionOutputDim(t *testing.T) {
	it := NewInteraction(8, 3) // 4 features -> 6 pairs
	if got := it.OutputDim(); got != 8+6 {
		t.Fatalf("OutputDim = %d want 14", got)
	}
}

func TestInteractionForwardKnown(t *testing.T) {
	it := NewInteraction(2, 1)
	dense := tensor.FromSlice(1, 2, []float32{1, 2})
	emb := tensor.FromSlice(1, 2, []float32{3, 4})
	out := it.Forward(dense, []*tensor.Matrix{emb})
	// Output = [dense..., dot(emb,dense)] = [1, 2, 11]
	want := []float32{1, 2, 11}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("Interaction forward %v want %v", out.Data, want)
		}
	}
}

// TestInteractionGradCheck: the layer's gradients against central
// differences, at one worker and at the host's width, where the two samples
// run on two executors.
func TestInteractionGradCheck(t *testing.T) {
	workertest.Each(t, func(int) { testInteractionGradCheck(t) })
}

func testInteractionGradCheck(t *testing.T) {
	rng := tensor.NewRNG(9)
	it := NewInteraction(4, 3)
	dense := tensor.New(2, 4)
	rng.FillUniform(dense.Data, 1)
	embs := make([]*tensor.Matrix, 3)
	for i := range embs {
		embs[i] = tensor.New(2, 4)
		rng.FillUniform(embs[i].Data, 1)
	}
	eval := func() float64 { return scalarLoss(it.Forward(dense, embs)) }
	out := it.Forward(dense, embs)
	dDense, dEmbs := it.Backward(out)
	for _, idx := range []int{0, 3, 6} {
		want := numericGrad(dense.Data, idx, eval)
		if got := float64(dDense.Data[idx]); math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("Interaction dDense[%d] = %v want %v", idx, got, want)
		}
	}
	for ti := range embs {
		for _, idx := range []int{1, 5} {
			want := numericGrad(embs[ti].Data, idx, eval)
			if got := float64(dEmbs[ti].Data[idx]); math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
				t.Fatalf("Interaction dEmb[%d][%d] = %v want %v", ti, idx, got, want)
			}
		}
	}
}

func TestBCEWithLogitsKnownValues(t *testing.T) {
	logits := tensor.FromSlice(2, 1, []float32{0, 0})
	loss, grad := BCEWithLogits(logits, []float32{1, 0})
	// loss at z=0 is ln 2 for either label.
	if math.Abs(float64(loss)-math.Ln2) > 1e-6 {
		t.Fatalf("BCEWithLogits loss = %v want ln2", loss)
	}
	if math.Abs(float64(grad.Data[0])+0.25) > 1e-6 || math.Abs(float64(grad.Data[1])-0.25) > 1e-6 {
		t.Fatalf("BCEWithLogits grad = %v want [-0.25, 0.25]", grad.Data)
	}
}

func TestBCEWithLogitsGradCheck(t *testing.T) {
	rng := tensor.NewRNG(10)
	logits := tensor.New(6, 1)
	rng.FillUniform(logits.Data, 2)
	labels := []float32{1, 0, 1, 1, 0, 0}
	eval := func() float64 {
		l, _ := BCEWithLogits(logits, labels)
		return float64(l)
	}
	_, grad := BCEWithLogits(logits, labels)
	for idx := 0; idx < 6; idx++ {
		want := numericGrad(logits.Data, idx, eval)
		if got := float64(grad.Data[idx]); math.Abs(got-want) > 1e-3 {
			t.Fatalf("BCE grad[%d] = %v want %v", idx, got, want)
		}
	}
}

func TestBCEWithLogitsExtremeStable(t *testing.T) {
	logits := tensor.FromSlice(2, 1, []float32{1000, -1000})
	loss, grad := BCEWithLogits(logits, []float32{1, 0})
	if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
		t.Fatalf("extreme logits gave loss %v", loss)
	}
	if grad.Data[0] != 0 || grad.Data[1] != 0 {
		t.Fatalf("correct extreme predictions should have ~0 grad, got %v", grad.Data)
	}
}

func TestBCEEmptyBatch(t *testing.T) {
	loss, grad := BCEWithLogits(tensor.New(0, 1), nil)
	if loss != 0 || grad.Rows != 0 {
		t.Fatalf("empty batch loss=%v rows=%d", loss, grad.Rows)
	}
}

func TestSGDStep(t *testing.T) {
	p := newParam("p", 1, 3)
	copy(p.Value.Data, []float32{1, 2, 3})
	copy(p.Grad.Data, []float32{1, 1, 1})
	NewSGD(0.5).Step([]*Param{p})
	want := []float32{0.5, 1.5, 2.5}
	for i := range want {
		if p.Value.Data[i] != want[i] {
			t.Fatalf("SGD value %v want %v", p.Value.Data, want)
		}
		if p.Grad.Data[i] != 0 {
			t.Fatal("SGD Step must zero gradients")
		}
	}
}

func TestSGDTrainsXORishTask(t *testing.T) {
	// A tiny integration test: the MLP should fit a separable toy problem.
	rng := tensor.NewRNG(11)
	m := NewMLP([]int{2, 16, 1}, rng)
	opt := NewSGD(0.5)
	x := tensor.FromSlice(4, 2, []float32{0, 0, 0, 1, 1, 0, 1, 1})
	labels := []float32{0, 1, 1, 0}
	var loss float32
	for epoch := 0; epoch < 800; epoch++ {
		logits := m.Forward(x)
		var grad *tensor.Matrix
		loss, grad = BCEWithLogits(logits, labels)
		m.Backward(grad)
		opt.Step(m.Params())
	}
	if loss > 0.1 {
		t.Fatalf("MLP failed to fit XOR: final loss %v", loss)
	}
}

func TestSigmoidSlice(t *testing.T) {
	out := SigmoidSlice([]float32{0})
	if math.Abs(float64(out[0])-0.5) > 1e-6 {
		t.Fatalf("SigmoidSlice(0) = %v", out[0])
	}
}

// unfusedTower is the dense tower as it ran before linear owned its
// activation, kept as the fused tower's oracle: per layer a product, one
// bias AddTo per row, then a separate ReLU pass that branches per element,
// records a []bool mask and writes a second buffer; backward masks into a
// third buffer and sums db one row at a time.
type unfusedTower struct {
	w, b, dW, db []*tensor.Matrix
	xs           []*tensor.Matrix // layer inputs of the last forward
	masks        [][]bool
}

func unfusedCopy(m *MLP) *unfusedTower {
	u := &unfusedTower{}
	for _, l := range m.layers {
		u.w, u.b = append(u.w, l.W.Value.Clone()), append(u.b, l.B.Value.Clone())
		u.dW, u.db = append(u.dW, tensor.New(l.Out, l.In)), append(u.db, tensor.New(1, l.Out))
	}
	return u
}

func (u *unfusedTower) forward(x *tensor.Matrix) *tensor.Matrix {
	u.xs, u.masks = u.xs[:0], u.masks[:0]
	for k, w := range u.w {
		u.xs = append(u.xs, x)
		z := tensor.New(x.Rows, w.Rows)
		tensor.MatMulTransB(z, x, w)
		for i := 0; i < z.Rows; i++ {
			tensor.AddTo(z.Row(i), u.b[k].Data)
		}
		x = z
		if k+1 == len(u.w) {
			break
		}
		y, mask := tensor.New(z.Rows, z.Cols), make([]bool, len(z.Data))
		for i, v := range z.Data {
			if v > 0 {
				y.Data[i], mask[i] = v, true
			}
		}
		u.masks = append(u.masks, mask)
		x = y
	}
	return x
}

func (u *unfusedTower) backward(dy *tensor.Matrix) *tensor.Matrix {
	for k := len(u.w) - 1; k >= 0; k-- {
		if k+1 < len(u.w) {
			masked := tensor.New(dy.Rows, dy.Cols)
			for i, v := range dy.Data {
				if u.masks[k][i] {
					masked.Data[i] = v
				}
			}
			dy = masked
		}
		tensor.MatMulTransAAdd(u.dW[k], dy, u.xs[k])
		for i := 0; i < dy.Rows; i++ {
			tensor.AddTo(u.db[k].Data, dy.Row(i))
		}
		dx := tensor.New(dy.Rows, u.w[k].Cols)
		tensor.MatMul(dx, dy, u.w[k])
		dy = dx
	}
	return dy
}

func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestMLPMatchesUnfusedTowerBitForBit: at the benchmark's two tower shapes
// and at ragged batches, the fused tower's output, input gradient and
// accumulated W.Grad/B.Grad carry the unfused tower's bits over two steps
// without a gradient reset (so the second step also checks accumulation and
// buffer reuse after a batch-size change), and Backward leaves dy untouched.
func TestMLPMatchesUnfusedTowerBitForBit(t *testing.T) {
	rng := tensor.NewRNG(12)
	for _, tc := range []struct {
		sizes   []int
		batches []int
	}{
		{[]int{13, 64, 32, 32}, []int{256, 7, 1, 128}},
		{[]int{383, 64, 32, 1}, []int{128, 1, 7, 256}},
	} {
		m := NewMLP(tc.sizes, rng)
		for _, p := range m.Params() {
			if p.Value.Rows == 1 { // biases start at zero; give the clamp something to do
				rng.FillUniform(p.Value.Data, 0.5)
			}
		}
		u := unfusedCopy(m)
		out := tc.sizes[len(tc.sizes)-1]
		for _, batch := range tc.batches {
			x, dy := tensor.New(batch, tc.sizes[0]), tensor.New(batch, out)
			rng.FillNormal(x.Data, 1)
			rng.FillNormal(dy.Data, 1)
			dyWas := dy.Clone()
			if got, want := m.Forward(x), u.forward(x); !sameBits(got.Data, want.Data) {
				t.Fatalf("%v batch %d: forward differs from the unfused tower", tc.sizes, batch)
			}
			if got, want := m.Backward(dy), u.backward(dy); !sameBits(got.Data, want.Data) {
				t.Fatalf("%v batch %d: input gradient differs from the unfused tower", tc.sizes, batch)
			}
			if !sameBits(dy.Data, dyWas.Data) {
				t.Fatalf("%v batch %d: Backward wrote its argument", tc.sizes, batch)
			}
			for k, l := range m.layers {
				if !sameBits(l.W.Grad.Data, u.dW[k].Data) || !sameBits(l.B.Grad.Data, u.db[k].Data) {
					t.Fatalf("%v batch %d: layer %d gradients differ from the unfused tower", tc.sizes, batch, k)
				}
			}
		}
	}
}

// TestMLPZeroAllocSteadyState: once warm, (*MLP).Forward and Backward
// allocate nothing, at one worker and at the host's width.
func TestMLPZeroAllocSteadyState(t *testing.T) {
	rng := tensor.NewRNG(13)
	m := NewMLP([]int{383, 64, 32, 1}, rng)
	x, dy := tensor.New(128, 383), tensor.New(128, 1)
	rng.FillNormal(x.Data, 1)
	rng.FillNormal(dy.Data, 1)
	step := func() {
		m.Forward(x)
		m.Backward(dy)
	}
	workertest.Each(t, func(workers int) {
		step()
		if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
			t.Fatalf("steady-state Forward+Backward allocates %v times per step at %d workers", allocs, workers)
		}
	})
}
