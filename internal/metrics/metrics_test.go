package metrics

import (
	"math"
	"testing"
)

func TestAccuracy(t *testing.T) {
	probs := []float32{0.9, 0.1, 0.6, 0.4}
	labels := []float32{1, 0, 0, 1}
	if got := Accuracy(probs, labels, 0.5); got != 0.5 {
		t.Fatalf("Accuracy = %v want 0.5", got)
	}
	if got := Accuracy(nil, nil, 0.5); got != 0 {
		t.Fatalf("empty Accuracy = %v", got)
	}
}

func TestAccuracyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	Accuracy([]float32{1}, []float32{1, 0}, 0.5)
}

func TestAUCPerfectAndInverted(t *testing.T) {
	probs := []float32{0.1, 0.2, 0.8, 0.9}
	labels := []float32{0, 0, 1, 1}
	if got := AUC(probs, labels); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect AUC = %v", got)
	}
	inverted := []float32{1, 1, 0, 0}
	if got := AUC(probs, inverted); math.Abs(got) > 1e-9 {
		t.Fatalf("inverted AUC = %v", got)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	// All-equal scores: AUC must be exactly 0.5 via tie handling.
	probs := []float32{0.5, 0.5, 0.5, 0.5}
	labels := []float32{0, 1, 0, 1}
	if got := AUC(probs, labels); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("tied AUC = %v want 0.5", got)
	}
}

func TestAUCSingleClass(t *testing.T) {
	if got := AUC([]float32{0.3, 0.7}, []float32{1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %v want 0.5", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// One miss-ordered pair of 6: AUC = (9-1... compute directly:
	// pos scores {0.8, 0.3}, neg {0.1, 0.5}: pairs ordered correctly:
	// (0.8>0.1), (0.8>0.5), (0.3>0.1) = 3 of 4 → 0.75.
	probs := []float32{0.8, 0.3, 0.1, 0.5}
	labels := []float32{1, 1, 0, 0}
	if got := AUC(probs, labels); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("AUC = %v want 0.75", got)
	}
}

func TestLossCurve(t *testing.T) {
	var c LossCurve
	for i := 0; i < 10; i++ {
		c.Add(i, float64(10-i))
	}
	s := c.Smoothed(3)
	if len(s) != 10 {
		t.Fatalf("smoothed length %d", len(s))
	}
	// First point is itself.
	if s[0] != 10 {
		t.Fatalf("s[0] = %v", s[0])
	}
	// Middle point is trailing mean of 3.
	if math.Abs(s[5]-(5.0+6.0+7.0)/3) > 1e-9 {
		t.Fatalf("s[5] = %v", s[5])
	}
	if got := c.Final(3); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Final = %v want 2", got)
	}
	var empty LossCurve
	if empty.Final(5) != 0 {
		t.Fatal("empty Final != 0")
	}
}

func TestSmoothedWindowClamp(t *testing.T) {
	var c LossCurve
	c.Add(0, 4)
	if got := c.Smoothed(0); got[0] != 4 {
		t.Fatalf("window 0 smoothing = %v", got)
	}
}
