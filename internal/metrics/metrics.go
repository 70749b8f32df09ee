// Package metrics provides the evaluation metrics the paper reports:
// classification accuracy (Table IV), ROC AUC, loss-convergence curves
// (Figure 15) and throughput bookkeeping.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Accuracy returns the fraction of predictions on the correct side of the
// threshold (the paper's Table IV metric, threshold 0.5).
func Accuracy(probs, labels []float32, threshold float32) float64 {
	if len(probs) != len(labels) {
		panic(fmt.Sprintf("metrics: %d probs vs %d labels", len(probs), len(labels)))
	}
	if len(probs) == 0 {
		return 0
	}
	correct := 0
	for i, p := range probs {
		pred := float32(0)
		if p >= threshold {
			pred = 1
		}
		if pred == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(probs))
}

// AUC returns the area under the ROC curve via the rank-sum formulation,
// handling ties by average rank. Returns 0.5 when a class is absent.
func AUC(probs, labels []float32) float64 {
	if len(probs) != len(labels) {
		panic(fmt.Sprintf("metrics: %d probs vs %d labels", len(probs), len(labels)))
	}
	n := len(probs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return probs[idx[a]] < probs[idx[b]] })

	// Average ranks over tie groups.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && probs[idx[j+1]] == probs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	var posRankSum float64
	var pos, neg int
	for i, l := range labels {
		if l == 1 {
			posRankSum += ranks[i]
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	return (posRankSum - float64(pos)*float64(pos+1)/2) / (float64(pos) * float64(neg))
}

// logLossClamp keeps a saturated probability's log finite: LogLoss reads p
// as min(max(p, ε), 1−ε).
const logLossClamp = 1e-7

// LogLoss returns the mean binary cross-entropy of the predicted
// probabilities against 0/1 labels, −mean(y·ln p + (1−y)·ln(1−p)), with each
// p clamped to [1e−7, 1−1e−7]. Returns 0 for no predictions.
func LogLoss(probs, labels []float32) float64 {
	if len(probs) != len(labels) {
		panic(fmt.Sprintf("metrics: %d probs vs %d labels", len(probs), len(labels)))
	}
	if len(probs) == 0 {
		return 0
	}
	var sum float64
	for i, p := range probs {
		q := min(max(float64(p), logLossClamp), 1-logLossClamp)
		if labels[i] == 1 {
			sum -= math.Log(q)
		} else {
			sum -= math.Log(1 - q)
		}
	}
	return sum / float64(len(probs))
}

// LossCurve records training loss over iterations (Figure 15).
type LossCurve struct {
	Steps  []int
	Losses []float64
}

// Add appends one observation.
func (c *LossCurve) Add(step int, loss float64) {
	c.Steps = append(c.Steps, step)
	c.Losses = append(c.Losses, loss)
}

// Smoothed returns the curve smoothed with a trailing window average.
func (c *LossCurve) Smoothed(window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(c.Losses))
	var sum float64
	for i, v := range c.Losses {
		sum += v
		if i >= window {
			sum -= c.Losses[i-window]
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
}

// Final returns the smoothed final loss (last min(window, len) points).
func (c *LossCurve) Final(window int) float64 {
	if len(c.Losses) == 0 {
		return 0
	}
	s := c.Smoothed(window)
	return s[len(s)-1]
}
