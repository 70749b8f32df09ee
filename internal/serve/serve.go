// Package serve provides batch inference over a trained DLRM: CTR scoring
// and top-k candidate ranking. A recommendation service holds one user
// context (dense features + the user-side categorical features) and scores
// many candidate items by swapping the item-side feature, in batches — the
// standard ranking-stage pattern (cf. DeepRecSys). Compressed Eff-TT tables
// make the scoring model small enough to replicate on every serving node.
package serve

import (
	"container/heap"
	"errors"
	"fmt"

	"repro/internal/dlrm"
)

// Typed errors for programmatic handling: a serving layer distinguishes bad
// requests (context/candidate problems, reported to the client) from bad
// deployments (configuration problems, reported to the operator). All
// errors returned by this package wrap one of these sentinels; match with
// errors.Is.
var (
	// ErrInvalidConfig marks a Ranker misconfiguration (bad item feature,
	// batch size or k).
	ErrInvalidConfig = errors.New("serve: invalid configuration")
	// ErrInvalidContext marks a request context that does not match the
	// model (wrong feature counts or out-of-range user features).
	ErrInvalidContext = errors.New("serve: invalid context")
	// ErrInvalidCandidate marks a candidate item id outside the item table.
	ErrInvalidCandidate = errors.New("serve: invalid candidate")
)

// Ranker scores candidates against a user context.
type Ranker struct {
	model *dlrm.Model
	// itemFeature is the categorical feature (table index) that identifies
	// the candidate item; all other features describe the user/context.
	itemFeature int
	// batch is the scoring batch size: rows per top-MLP pass.
	batch int
	// scratch is the grouped-forward state reused across calls; it is what
	// makes the Ranker single-goroutine.
	scratch dlrm.ScoreScratch
}

// NewRanker wraps a trained model. itemFeature selects which sparse feature
// carries the candidate item id.
func NewRanker(model *dlrm.Model, itemFeature, batchSize int) (*Ranker, error) {
	if itemFeature < 0 || itemFeature >= len(model.Tables) {
		return nil, fmt.Errorf("%w: item feature %d outside %d tables", ErrInvalidConfig, itemFeature, len(model.Tables))
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("%w: non-positive batch size %d", ErrInvalidConfig, batchSize)
	}
	return &Ranker{model: model, itemFeature: itemFeature, batch: batchSize}, nil
}

// Context is one user/request context: dense features plus one categorical
// index per table (the item feature's value is ignored during ranking).
type Context struct {
	Dense  []float32
	Sparse []int
}

// Validate checks the context against the model: dense width, sparse count,
// and every non-item categorical index in range. Exported so a serving front
// end can reject bad requests at admission, before they occupy a replica.
func (r *Ranker) Validate(ctx Context) error {
	if len(ctx.Dense) != r.model.Cfg.NumDense {
		return fmt.Errorf("%w: %d dense features, model wants %d", ErrInvalidContext, len(ctx.Dense), r.model.Cfg.NumDense)
	}
	if len(ctx.Sparse) != len(r.model.Tables) {
		return fmt.Errorf("%w: %d sparse features, model wants %d", ErrInvalidContext, len(ctx.Sparse), len(r.model.Tables))
	}
	for t, idx := range ctx.Sparse {
		if t == r.itemFeature {
			continue
		}
		if idx < 0 || idx >= r.model.Tables[t].NumRows() {
			return fmt.Errorf("%w: feature %d index %d out of range", ErrInvalidContext, t, idx)
		}
	}
	return nil
}

// ValidateCandidates checks every candidate id against the item table.
func (r *Ranker) ValidateCandidates(candidates []int) error {
	itemRows := r.model.Tables[r.itemFeature].NumRows()
	for i, c := range candidates {
		if c < 0 || c >= itemRows {
			return fmt.Errorf("%w: candidate %d: item %d outside item table of %d rows", ErrInvalidCandidate, i, c, itemRows)
		}
	}
	return nil
}

// Score returns the CTR probability of each candidate item for the context,
// in candidate order.
//
//elrec:rootctx pure compute: the only wait is tensor.ParallelFor joining a GEMM's row chunks, bounded by the product
func (r *Ranker) Score(ctx Context, candidates []int) ([]float32, error) {
	if err := r.Validate(ctx); err != nil {
		return nil, err
	}
	if err := r.ValidateCandidates(candidates); err != nil {
		return nil, err
	}
	out := make([]float32, len(candidates))
	r.ScoreGroups([]dlrm.ScoreGroup{{Dense: ctx.Dense, Sparse: ctx.Sparse, Items: candidates}}, out)
	return out, nil
}

// ScoreGroups scores already-validated requests in one grouped forward pass
// (dlrm.Model.ScoreGroups): each group's context side is computed once and
// its candidates are scored batchSize (NewRanker's) rows at a time, into
// scores in group then candidate order. It is the one scoring path — Score
// calls it with a single group, served.Pool with a coalesced micro-batch —
// and the steady state allocates nothing on an all-TT model. Scores are
// bit-identical to Model.Predict over Batcher.Build of each request.
//
//elrec:rootctx pure compute: the only wait is tensor.ParallelFor joining a GEMM's row chunks, bounded by the product
func (r *Ranker) ScoreGroups(groups []dlrm.ScoreGroup, scores []float32) {
	r.model.ScoreGroups(&r.scratch, r.itemFeature, r.batch, groups, scores)
}

// Scored pairs a candidate item with its predicted CTR.
type Scored struct {
	Item  int
	Score float32
}

// TopK returns the k highest-scoring candidates in descending score order
// (NaN scores rank below every real score, ties broken by lower item id).
// k larger than the candidate count returns all candidates ranked.
//
//elrec:rootctx pure compute: the only wait is tensor.ParallelFor joining a GEMM's row chunks, bounded by the product
func (r *Ranker) TopK(ctx Context, candidates []int, k int) ([]Scored, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: non-positive k %d", ErrInvalidConfig, k)
	}
	scores, err := r.Score(ctx, candidates)
	if err != nil {
		return nil, err
	}
	return SelectTopK(candidates, scores, k), nil
}

// SelectTopK ranks already-scored candidates: the k highest scores in
// descending order, NaN ranking last, ties broken by lower item id. Shared
// by Ranker.TopK and serving front ends that score through coalesced
// batches and rank afterwards. scores[i] belongs to candidates[i]; k larger
// than the candidate count returns everything ranked.
func SelectTopK(candidates []int, scores []float32, k int) []Scored {
	h := &minHeap{}
	heap.Init(h)
	for i, c := range candidates {
		s := Scored{Item: c, Score: scores[i]}
		if h.Len() < k {
			heap.Push(h, s)
		} else if better(s, (*h)[0]) {
			(*h)[0] = s
			heap.Fix(h, 0)
		}
	}
	out := make([]Scored, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Scored)
	}
	return out
}

// better reports whether a outranks b: higher score first, then lower item
// id. NaN is defined to rank below every real score (two NaNs tie-break by
// item id), which keeps better a strict ordering — without this a NaN score
// answers false both ways and corrupts the top-k heap invariant.
func better(a, b Scored) bool {
	an, bn := isNaN(a.Score), isNaN(b.Score)
	if an || bn {
		if an != bn {
			return bn // exactly one NaN: the real score outranks it
		}
		return a.Item < b.Item
	}
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Item < b.Item
}

// isNaN is math.IsNaN for float32 without the float64 round trip.
func isNaN(x float32) bool { return x != x }

// minHeap keeps the current worst of the top-k at the root.
type minHeap []Scored

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return better(h[j], h[i]) }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(Scored)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
