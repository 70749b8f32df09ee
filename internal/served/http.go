package served

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
)

// ScoreRequest is the JSON body of POST /score and POST /topk.
type ScoreRequest struct {
	// Dense and Sparse form the request context (serve.Context semantics:
	// the item feature's sparse slot is ignored during ranking).
	Dense  []float32 `json:"dense"`
	Sparse []int     `json:"sparse"`
	// Candidates are the item ids to score.
	Candidates []int `json:"candidates"`
	// K selects top-k ranking on /topk (ignored by /score).
	K int `json:"k,omitempty"`
	// TimeoutMS overrides the pool's default deadline for this request in
	// milliseconds (0: pool default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ScoreResponse is the JSON body answering /score.
type ScoreResponse struct {
	Scores []float32 `json:"scores"`
}

// maxBodyBytes caps every POST body. The pool's scratch grows to the largest
// request it has scored and never shrinks, so an unbounded body would let one
// request size a replica for good; a 128-candidate /score body is about 1 kB.
const maxBodyBytes = 1 << 20

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// ReloadRequest is the JSON body of POST /reload. An empty body (or empty
// path) reloads from the pool's NewFromCheckpoint path.
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// ReloadResponse is the JSON body answering a successful /reload.
type ReloadResponse struct {
	Version int64 `json:"version"`
}

// Handler exposes the pool over HTTP JSON: POST /score returns calibrated
// CTRs in candidate order, POST /topk the ranked top k, POST /reload
// hot-swaps in a new checkpoint and returns the new model version. The
// health routes live on the debug mux: obs.Handler with p.Ready answers
// /readyz 200 only while the pool serves a stable version (503 mid-swap and
// after Close), so load balancers route around a node that is reloading.
// Shedding maps to status codes a balancer can act on: 503 for ErrOverloaded
// and ErrShutdown, 504 for ErrDeadline, 400 for invalid requests (including
// anything but whitespace after the body's JSON value), 413 for a body over
// maxBodyBytes, 500 for a NaN or ±Inf score (JSON cannot carry one).
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		p.handle(w, r, false)
	})
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) {
		p.handle(w, r, true)
	})
	mux.HandleFunc("/reload", p.handleReload)
	return mux
}

// handleReload serves POST /reload: swap the pool to the checkpoint named
// in the body (default: the pool's construction checkpoint). 404 for a
// missing file, 400 for a pool without a reload surface, 503 once shut
// down, 500 for a corrupt checkpoint — in every failure case the pool keeps
// serving the old version.
func (p *Pool) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req ReloadRequest
	// An empty body means "reload the default path".
	if r.Body != nil && !decodeBody(w, r, &req) {
		return
	}
	version, err := p.SwapFromCheckpoint(req.Path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Version: version})
}

// handle serves /score and /topk through the wire codec (wire.go). A
// fast-path request's slices alias the pooled codec: the pool is done with
// them once ScoreDeadline/TopKDeadline returns, and the codec goes back
// after the response is written.
func (p *Pool) handle(w http.ResponseWriter, r *http.Request, topK bool) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	c := codecs.Get().(*scoreCodec)
	defer c.release()
	err := c.readBody(w, r)
	var req ScoreRequest
	if err == nil {
		req, err = c.decode(c.body)
	}
	if err != nil {
		writeBadBody(w, err)
		return
	}
	ctx := serve.Context{Dense: req.Dense, Sparse: req.Sparse}
	timeout := p.opts.Timeout
	if req.TimeoutMS < 0 {
		// A negative deadline must not silently fall back to the pool
		// default — that would let clients smuggle "no deadline" past the
		// shedding policy.
		writeError(w, fmt.Errorf("%w: negative timeout_ms %d", serve.ErrInvalidConfig, req.TimeoutMS))
		return
	}
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if topK {
		var items []serve.Scored
		if items, err = p.TopKDeadline(ctx, req.Candidates, req.K, timeout); err == nil {
			c.out, err = appendTopK(c.out[:0], items)
		}
	} else {
		var scores []float32
		if scores, err = p.ScoreDeadline(ctx, req.Candidates, timeout); err == nil {
			c.out, err = appendScores(c.out[:0], scores)
		}
	}
	if err != nil {
		// A NaN or ±Inf score fails the encode before the status goes out:
		// the client gets writeError's 500 naming it, not a 200 with an
		// empty body.
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(c.out) // a broken connection is the client's problem
}

// decodeBody decodes the /reload body — empty, or one JSON value of at most
// maxBodyBytes by decodeJSON — into v. An empty body leaves v untouched. On
// failure it answers as writeBadBody and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
	if err != nil && !errors.Is(err, io.EOF) {
		writeBadBody(w, err)
		return false
	}
	return true
}

// decodeJSON is the one definition of a request body on every route: one
// JSON value decoded into v by encoding/json, with nothing but whitespace
// after it. An empty body is io.EOF, which only /reload accepts.
func decodeJSON(r io.Reader, v interface{}) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	// The value must be the whole body: the next token has to be a clean
	// end of input.
	_, err := dec.Token()
	switch {
	case errors.Is(err, io.EOF):
		return nil
	case err == nil:
		return errors.New("trailing data after the JSON value")
	}
	return err
}

// writeBadBody answers a body that could not be read or decoded: 413 over
// maxBodyBytes, 400 for anything else.
func writeBadBody(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorResponse{Error: "bad JSON: " + err.Error()})
}

// writeError maps pool and serve errors to HTTP status codes.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrShutdown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		status = http.StatusGatewayTimeout
	case errors.Is(err, serve.ErrInvalidContext),
		errors.Is(err, serve.ErrInvalidCandidate),
		errors.Is(err, serve.ErrInvalidConfig):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding a fixed-shape response cannot fail; a broken connection is
	// the client's problem.
	_ = json.NewEncoder(w).Encode(v)
}
