package served

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/serve"
)

// The /score and /topk wire codec: the two hot routes parse and write their
// fixed shapes here, without reflection, in pooled scratch.
//
// encoding/json is the one definition of a request body: decodeJSON's rule,
// json.Decoder.Decode into a zero ScoreRequest and then Token() == io.EOF,
// which /reload follows too. The hand parser (fast) takes only the form
// encoding/json itself writes: one object whose keys are exactly "dense",
// "sparse", "candidates", "k" and "timeout_ms", each at most once and
// unescaped; slices as null or arrays of JSON numbers, ints as numbers, no
// whitespace but after the object. It decodes that form as the rule would:
// ints through strconv.ParseInt(…, 10, 64), floats through
// strconv.ParseFloat(…, 32), [] to a non-nil empty slice, null to nil. Any
// other body, valid or not, it hands to the rule.
//
// The writers emit what json.NewEncoder(w).Encode writes for ScoreResponse
// and for {"items":[{"item":…,"score":…},…]}, byte for byte, and refuse a
// NaN or ±Inf score as it does.

// maxPooledBody bounds the body capacity of a codec that goes back to the
// pool. The body bounds every slice the codec grows (an element takes at
// least two bytes), so one near-1 MiB request does not pin megabytes of
// scratch; a 128-candidate body is about 1 kB.
const maxPooledBody = 64 << 10

// scoreCodec is the pooled state of one /score or /topk call: the body, the
// backing arrays of the fast path's request and the response buffer.
type scoreCodec struct {
	body       []byte
	out        []byte
	dense      []float32
	sparse     []int
	candidates []int
}

var codecs = sync.Pool{New: func() any { return new(scoreCodec) }}

func (c *scoreCodec) release() {
	if cap(c.body) <= maxPooledBody {
		codecs.Put(c)
	}
}

// readBody reads r's body, at most maxBodyBytes of it, into c.body. Over the
// cap the error is the *http.MaxBytesError the reader reports.
func (c *scoreCodec) readBody(w http.ResponseWriter, r *http.Request) error {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = slices.Grow(c.body, 512)
		}
		n, err := body.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decode parses body into a ScoreRequest: on the fast path, with slices
// that alias c's scratch until the next decode, or else by decodeJSON.
func (c *scoreCodec) decode(body []byte) (ScoreRequest, error) {
	if req, ok := c.fast(body); ok {
		return req, nil
	}
	var req ScoreRequest
	if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
		return ScoreRequest{}, err
	}
	return req, nil
}

// ScoreRequest fields, as object keys name them.
const (
	fieldNone = iota
	fieldDense
	fieldSparse
	fieldCandidates
	fieldK
	fieldTimeoutMS
)

// fast decodes body if it is in encoding/json's own form (the file
// comment), and reports false on any other body.
func (c *scoreCodec) fast(body []byte) (req ScoreRequest, ok bool) {
	d := decoder{buf: body}
	if !d.eat('{') {
		return req, false
	}
	seen := 1 << fieldNone // an unknown key is never this parser's
	for !d.eat('}') {
		if seen != 1<<fieldNone && !d.eat(',') { // every key but the first follows a ','
			return req, false
		}
		field := d.key()
		if seen&(1<<field) != 0 {
			return req, false
		}
		seen |= 1 << field
		switch field {
		case fieldDense:
			req.Dense, ok = elements(&d, &c.dense, d.float)
		case fieldSparse:
			req.Sparse, ok = elements(&d, &c.sparse, d.int)
		case fieldCandidates:
			req.Candidates, ok = elements(&d, &c.candidates, d.int)
		case fieldK:
			ok = d.int(&req.K)
		case fieldTimeoutMS:
			ok = d.int(&req.TimeoutMS)
		}
		if !ok {
			return req, false
		}
	}
	return req, len(bytes.TrimLeft(d.buf[d.pos:], " \t\r\n")) == 0
}

// elements parses null or an array of numbers, each by elem, into scratch.
func elements[T float32 | int](d *decoder, scratch *[]T, elem func(*T) bool) ([]T, bool) {
	if bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		d.pos += len("null")
		return nil, true
	}
	if !d.eat('[') {
		return nil, false
	}
	if d.eat(']') {
		return []T{}, true
	}
	s := (*scratch)[:0]
	for {
		s = append(s, 0)
		if !elem(&s[len(s)-1]) {
			return nil, false
		}
		if d.eat(']') {
			break
		}
		if !d.eat(',') {
			return nil, false
		}
	}
	*scratch = s
	return s[:len(s):len(s)], true
}

// decoder is a cursor over one request body.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) eat(c byte) bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// key consumes an object key and its ':' and returns the field the key
// names byte for byte, fieldNone for any other key or a malformed one.
func (d *decoder) key() int {
	if !d.eat('"') {
		return fieldNone
	}
	n := bytes.IndexByte(d.buf[d.pos:], '"')
	if n < 0 {
		return fieldNone
	}
	name := d.buf[d.pos : d.pos+n]
	if d.pos += n + 1; !d.eat(':') {
		return fieldNone
	}
	switch string(name) {
	case "dense":
		return fieldDense
	case "sparse":
		return fieldSparse
	case "candidates":
		return fieldCandidates
	case "k":
		return fieldK
	case "timeout_ms":
		return fieldTimeoutMS
	}
	return fieldNone
}

// number consumes a JSON number and returns its literal.
func (d *decoder) number() ([]byte, bool) {
	b, i := d.buf, d.pos
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[d.pos:i]
	d.pos = i
	return lit, true
}

func (d *decoder) float(p *float32) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 32)
	*p = float32(f)
	return err == nil
}

func (d *decoder) int(p *int) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*p = int(n)
	return err == nil && int64(int(n)) == n
}

// appendScores appends the /score body for scores: what
// json.NewEncoder(w).Encode(ScoreResponse{…}) writes for the same scores in
// a non-nil slice. A NaN or ±Inf score is an error, as there.
func appendScores(dst []byte, scores []float32) ([]byte, error) {
	dst = append(dst, `{"scores":[`...)
	for i, s := range scores {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendFloat32(dst, s); !ok {
			return dst, fmt.Errorf("served: score %d is %v, which JSON cannot carry", i, s)
		}
	}
	return append(dst, "]}\n"...), nil
}

// appendTopK appends the /topk body for items: what json.NewEncoder(w).Encode
// writes for a struct holding the items as a non-nil slice under "items",
// each an {"item","score"} object. A NaN or ±Inf score is an error, as there.
func appendTopK(dst []byte, items []serve.Scored) ([]byte, error) {
	dst = append(dst, `{"items":[`...)
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"item":`...)
		dst = strconv.AppendInt(dst, int64(it.Item), 10)
		dst = append(dst, `,"score":`...)
		var ok bool
		if dst, ok = appendFloat32(dst, it.Score); !ok {
			return dst, fmt.Errorf("served: score of item %d is %v, which JSON cannot carry", it.Item, it.Score)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), nil
}

// appendFloat32 formats f as encoding/json does a float32: the shortest
// 'f' form, 'e' below 1e-6 and from 1e21 with a one-digit negative exponent
// unpadded (e-7, not e-07). It reports false for NaN and ±Inf.
func appendFloat32(dst []byte, f float32) ([]byte, bool) {
	f64 := float64(f)
	if math.IsInf(f64, 0) || math.IsNaN(f64) {
		return dst, false
	}
	format := byte('f')
	if abs := float32(math.Abs(f64)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f64, format, -1, 32)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}
