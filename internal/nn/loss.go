package nn

import (
	"math"

	"repro/internal/tensor"
)

// BCEWithLogits computes the mean binary cross-entropy between logits
// (batch×1) and labels (0 or 1), returning the loss and the gradient with
// respect to the logits. The formulation is the numerically stable
// log-sum-exp form used by torch.nn.BCEWithLogitsLoss:
//
//	loss = max(z,0) − z·y + log(1 + exp(−|z|))
//	dz   = (σ(z) − y) / batch
func BCEWithLogits(logits *tensor.Matrix, labels []float32) (float32, *tensor.Matrix) {
	return BCEWithLogitsInto(nil, logits, labels)
}

// BCEWithLogitsInto is BCEWithLogits writing the gradient into grad's
// storage (tensor.Reuse: a nil or too-small grad is replaced), so a training
// loop that passes back the matrix it got allocates nothing per step.
func BCEWithLogitsInto(grad, logits *tensor.Matrix, labels []float32) (float32, *tensor.Matrix) {
	if logits.Cols != 1 {
		panic(shapeErr("BCEWithLogits expects batch×1 logits, got %dx%d", logits.Rows, logits.Cols))
	}
	if logits.Rows != len(labels) {
		panic(shapeErr("BCEWithLogits %d logits vs %d labels", logits.Rows, len(labels)))
	}
	n := logits.Rows
	grad = tensor.Reuse(grad, n, 1) // every element is written below
	if n == 0 {
		return 0, grad
	}
	var total float64
	inv := 1 / float32(n)
	for i := 0; i < n; i++ {
		z := float64(logits.Data[i])
		y := float64(labels[i])
		loss := math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
		total += loss
		grad.Data[i] = (sigmoid(logits.Data[i]) - labels[i]) * inv
	}
	return float32(total / float64(n)), grad
}

// SigmoidSlice applies the logistic function to logits, producing
// probabilities (for evaluation/AUC).
func SigmoidSlice(logits []float32) []float32 {
	out := make([]float32, len(logits))
	SigmoidInto(out, logits)
	return out
}

// SigmoidInto writes the logistic function of logits into dst, which must
// have the same length — the allocation-free form of SigmoidSlice for hot
// serving paths that own their output scratch. Element results are
// bit-identical to SigmoidSlice.
func SigmoidInto(dst, logits []float32) {
	if len(dst) != len(logits) {
		panic(shapeErr("SigmoidInto dst len %d, logits len %d", len(dst), len(logits)))
	}
	for i, v := range logits {
		dst[i] = sigmoid(v)
	}
}

// sigmoid is the scalar logistic function with overflow guards.
func sigmoid(v float32) float32 {
	x := float64(v)
	switch {
	case x >= 30:
		return 1
	case x <= -30:
		return 0
	}
	return float32(1 / (1 + math.Exp(-x)))
}
