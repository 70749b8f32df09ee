package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
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
	l := NewLinear(2, 3, rng)
	l.W.Value.CopyFrom(tensor.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6}))
	l.B.Value.CopyFrom(tensor.FromSlice(1, 3, []float32{0.5, -0.5, 1}))
	x := tensor.FromSlice(1, 2, []float32{1, 1})
	y := l.Forward(x)
	want := []float32{3.5, 6.5, 12}
	for i, v := range want {
		if math.Abs(float64(y.Data[i]-v)) > 1e-6 {
			t.Fatalf("Forward[%d] = %v want %v", i, y.Data[i], v)
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear(4, 3, rng)
	x := tensor.New(5, 4)
	rng.FillUniform(x.Data, 1)

	eval := func() float64 { return scalarLoss(l.Forward(x)) }
	y := l.Forward(x)
	dx := l.Backward(y) // d(0.5 Σy²)/dy = y

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
	l := NewLinear(2, 2, tensor.NewRNG(3))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward before Forward did not panic")
		}
	}()
	l.Backward(tensor.New(1, 2))
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice(2, 2, []float32{-1, 2, 0, 3})
	y := r.Forward(x)
	want := []float32{0, 2, 0, 3}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU forward %v want %v", y.Data, want)
		}
	}
	dy := tensor.FromSlice(2, 2, []float32{5, 5, 5, 5})
	dx := r.Backward(dy)
	wantDx := []float32{0, 5, 0, 5}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Fatalf("ReLU backward %v want %v", dx.Data, wantDx)
		}
	}
}

func TestSigmoidForwardBackward(t *testing.T) {
	s := NewSigmoid()
	x := tensor.FromSlice(1, 3, []float32{0, 100, -100})
	y := s.Forward(x)
	if math.Abs(float64(y.Data[0])-0.5) > 1e-6 || y.Data[1] != 1 || y.Data[2] != 0 {
		t.Fatalf("Sigmoid forward %v", y.Data)
	}
	dy := tensor.FromSlice(1, 3, []float32{1, 1, 1})
	dx := s.Backward(dy)
	if math.Abs(float64(dx.Data[0])-0.25) > 1e-6 {
		t.Fatalf("Sigmoid backward at 0 = %v want 0.25", dx.Data[0])
	}
	if dx.Data[1] != 0 || dx.Data[2] != 0 {
		t.Fatalf("Sigmoid backward saturated = %v want 0", dx.Data[1:])
	}
}

func TestMLPShapesAndGradCheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewMLP([]int{6, 8, 4, 1}, false, rng)
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

func TestMLPSigmoidOutputRange(t *testing.T) {
	rng := tensor.NewRNG(5)
	m := NewMLP([]int{4, 8, 1}, true, rng)
	x := tensor.New(16, 4)
	rng.FillUniform(x.Data, 3)
	y := m.Forward(x)
	for _, v := range y.Data {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid MLP output out of range: %v", v)
		}
	}
}

func TestMLPCopyParamsFrom(t *testing.T) {
	rng := tensor.NewRNG(6)
	a := NewMLP([]int{3, 5, 1}, false, rng)
	b := NewMLP([]int{3, 5, 1}, false, tensor.NewRNG(7))
	b.CopyParamsFrom(a)
	x := tensor.New(2, 3)
	rng.FillUniform(x.Data, 1)
	ya, yb := a.Forward(x), b.Forward(x)
	if ya.MaxAbsDiff(yb) != 0 {
		t.Fatal("CopyParamsFrom did not replicate outputs")
	}
}

func TestMLPNumParams(t *testing.T) {
	m := NewMLP([]int{3, 5, 1}, false, tensor.NewRNG(8))
	want := 3*5 + 5 + 5*1 + 1
	if got := m.NumParams(); got != want {
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

func TestInteractionGradCheck(t *testing.T) {
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

func TestBCEProbabilityForm(t *testing.T) {
	probs := tensor.FromSlice(2, 1, []float32{0.5, 0.5})
	loss, grad := BCE(probs, []float32{1, 0})
	if math.Abs(float64(loss)-math.Ln2) > 1e-6 {
		t.Fatalf("BCE loss = %v want ln2", loss)
	}
	if math.Abs(float64(grad.Data[0])+1) > 1e-5 || math.Abs(float64(grad.Data[1])-1) > 1e-5 {
		t.Fatalf("BCE grad = %v want [-1, 1]", grad.Data)
	}
	// Clamped extremes must stay finite.
	probs = tensor.FromSlice(2, 1, []float32{0, 1})
	loss, _ = BCE(probs, []float32{1, 0})
	if math.IsInf(float64(loss), 0) || math.IsNaN(float64(loss)) {
		t.Fatalf("BCE at clamped extremes = %v", loss)
	}
}

func TestBCEEmptyBatch(t *testing.T) {
	loss, grad := BCEWithLogits(tensor.New(0, 1), nil)
	if loss != 0 || grad.Rows != 0 {
		t.Fatalf("empty batch loss=%v rows=%d", loss, grad.Rows)
	}
}

func TestSGDStep(t *testing.T) {
	p := NewParam("p", 1, 3)
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
	m := NewMLP([]int{2, 16, 1}, false, rng)
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
