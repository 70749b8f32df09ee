package served

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/serve"
)

// The /score and /topk wire codec: the two hot routes parse and write their
// fixed shapes here, without reflection, in pooled scratch. encoding/json
// stays the codec of the cold routes and the oracle of the tests.
//
// The parser's contract is the parent rule — json.Decoder.Decode into a zero
// ScoreRequest, then Token() == io.EOF — on every body under maxBodyBytes: it
// accepts exactly the bodies that rule accepts and yields the same fields,
// float bits and nil-ness included. So it keeps encoding/json's quirks on
// this struct, each reachable from a client:
//   - keys match a field after unescaping, under Unicode simple folding
//     ("DENSE", "dense" and "ſparse" all match);
//   - unknown keys are skipped, their values still validated, nesting capped
//     at maxDepth;
//   - on a duplicate key the last wins, but an array decodes into the slice
//     the earlier one left: a null element keeps what that backing array
//     holds in its slot (0 past the longest array since the slice was last
//     reset), and the slice takes the new array's length;
//   - null leaves an int field unchanged and resets a slice to nil; [] makes
//     a non-nil empty slice over a fresh array;
//   - ints go through strconv.ParseInt(…, 10, 64) (so 1.0 and 1e2 reject),
//     floats through strconv.ParseFloat(…, 32) (so 1e39 rejects);
//   - strings may hold any byte but a control byte, with only JSON's escapes;
//   - only JSON whitespace may follow the value; a top-level null is an
//     empty request.
//
// The writers emit what json.NewEncoder(w).Encode writes for ScoreResponse
// and for {"items":[{"item":…,"score":…},…]}, byte for byte, and refuse a
// NaN or ±Inf score as it does.

// maxDepth is encoding/json's nesting cap: open arrays and objects, the
// request object included.
const maxDepth = 10000

// maxPooledBody bounds the body capacity of a codec that goes back to the
// pool. The body bounds every slice the codec grows (an element takes at
// least two bytes), so one near-1 MiB request does not pin megabytes of
// scratch; a 128-candidate body is about 1 kB.
const maxPooledBody = 64 << 10

// scoreCodec is the pooled state of one /score or /topk call: the body, the
// backing arrays of the decoded request and the response buffer.
type scoreCodec struct {
	body       []byte
	out        []byte
	dense      slot[float32]
	sparse     slot[int]
	candidates slot[int]
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

// decode parses body into a ScoreRequest whose slices alias c's scratch
// until the next decode.
func (c *scoreCodec) decode(body []byte) (ScoreRequest, error) {
	c.dense.reset()
	c.sparse.reset()
	c.candidates.reset()
	var req ScoreRequest
	d := decoder{buf: body}
	d.ws()
	var err error
	switch d.peek() {
	case '{':
		err = c.object(&d, &req)
	case 'n':
		err = d.literal("null")
	default:
		err = d.fail("the request is not a JSON object")
	}
	if err != nil {
		return ScoreRequest{}, err
	}
	if d.ws(); d.pos != len(d.buf) {
		return ScoreRequest{}, d.fail("trailing data after the JSON value")
	}
	req.Dense = c.dense.view()
	req.Sparse = c.sparse.view()
	req.Candidates = c.candidates.view()
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

// object parses the request object; d is at its '{'.
func (c *scoreCodec) object(d *decoder, req *ScoreRequest) error {
	d.pos++
	d.ws()
	if d.eat('}') {
		return nil
	}
	for {
		field, err := d.key()
		if err != nil {
			return err
		}
		switch field {
		case fieldDense:
			err = elements(d, &c.dense, d.float)
		case fieldSparse:
			err = elements(d, &c.sparse, d.int)
		case fieldCandidates:
			err = elements(d, &c.candidates, d.int)
		case fieldK:
			err = d.intField(&req.K)
		case fieldTimeoutMS:
			err = d.intField(&req.TimeoutMS)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
		if d.ws(); d.eat('}') {
			return nil
		}
		if !d.eat(',') {
			return d.fail("expected ',' or '}' after an object value")
		}
		d.ws()
	}
}

// slot is the backing array of one slice field across the duplicates of its
// key in one request. Slots [0, hw) hold what this request's arrays wrote
// there; the array encoding/json would decode into is zero past them. buf
// itself is reused across requests.
type slot[T float32 | int] struct {
	buf  []T
	n    int  // length of the field's slice
	hw   int  // slots written since the slice was last reset
	null bool // the field is nil: absent, or its last value was null
}

func (s *slot[T]) reset() { s.n, s.hw, s.null = 0, 0, true }

// at returns element i of the array being decoded; i grows by one per call.
func (s *slot[T]) at(i int) *T {
	if i == s.hw {
		if i == len(s.buf) {
			s.buf = append(s.buf, 0)
			s.buf = s.buf[:cap(s.buf)]
		}
		s.buf[i] = 0
		s.hw++
	}
	return &s.buf[i]
}

// end closes an array of n elements; an empty one is a fresh array.
func (s *slot[T]) end(n int) {
	s.n, s.null = n, false
	if n == 0 {
		s.hw = 0
	}
}

func (s *slot[T]) view() []T {
	switch {
	case s.null:
		return nil
	case s.n == 0:
		return []T{}
	}
	return s.buf[:s.n:s.n]
}

// elements parses null or an array into s, each non-null element by elem;
// a null element leaves its slot as it is.
func elements[T float32 | int](d *decoder, s *slot[T], elem func(*T) error) error {
	if d.peek() == 'n' {
		s.reset()
		return d.literal("null")
	}
	if !d.eat('[') {
		return d.fail("expected an array")
	}
	if d.ws(); d.eat(']') {
		s.end(0)
		return nil
	}
	for i := 0; ; i++ {
		p := s.at(i)
		var err error
		if d.peek() == 'n' {
			err = d.literal("null")
		} else {
			err = elem(p)
		}
		if err != nil {
			return err
		}
		if d.ws(); d.eat(']') {
			s.end(i + 1)
			return nil
		}
		if !d.eat(',') {
			return d.fail("expected ',' or ']' after an array element")
		}
		d.ws()
	}
}

// decoder is a cursor over one request body.
type decoder struct {
	buf []byte
	pos int
}

// wireError is a body the parent's encoding/json rule refuses.
type wireError struct {
	off int
	msg string
}

func (e *wireError) Error() string { return fmt.Sprintf("%s (offset %d)", e.msg, e.off) }

func (d *decoder) fail(msg string) error {
	if d.pos >= len(d.buf) {
		msg = "unexpected end of JSON input"
	}
	return &wireError{off: d.pos, msg: msg}
}

func (d *decoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func (d *decoder) eat(c byte) bool {
	if d.pos < len(d.buf) && d.buf[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *decoder) literal(word string) error {
	if len(d.buf)-d.pos < len(word) || string(d.buf[d.pos:d.pos+len(word)]) != word {
		return d.fail("invalid literal, expected " + word)
	}
	d.pos += len(word)
	return nil
}

// number consumes a JSON number and returns its literal.
func (d *decoder) number() ([]byte, error) {
	b, i := d.buf, d.pos
	digits := func() {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		digits()
	default:
		d.pos = i
		return nil, d.fail("expected a value")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			d.pos = i
			return nil, d.fail("expected a digit after the decimal point")
		}
		digits()
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			d.pos = i
			return nil, d.fail("expected a digit in the exponent")
		}
		digits()
	}
	lit := b[d.pos:i]
	d.pos = i
	return lit, nil
}

func (d *decoder) float(p *float32) error {
	lit, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 32)
	if err != nil {
		return d.fail("number " + string(lit) + " is not a float32")
	}
	*p = float32(f)
	return nil
}

func (d *decoder) int(p *int) error {
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(n)) != n {
		return d.fail("number " + string(lit) + " is not an int")
	}
	*p = int(n)
	return nil
}

// intField parses the value of an int field; null leaves it unchanged.
func (d *decoder) intField(p *int) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	return d.int(p)
}

// str consumes a string whose opening quote is consumed, validated as
// encoding/json's scanner does, and returns its raw contents and whether
// they are ASCII without an escape.
func (d *decoder) str() (raw []byte, plain bool, err error) {
	b, start := d.buf, d.pos
	plain = true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			return b[start:i], plain, nil
		case c == '\\':
			plain = false
			if i++; i == len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					if i++; i == len(b) || !isHex(b[i]) {
						d.pos = i
						return nil, false, d.fail("invalid \\u escape in string")
					}
				}
			default:
				d.pos = i
				return nil, false, d.fail("invalid escape in string")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.fail("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.pos = len(b)
	return nil, false, d.fail("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// key parses an object key, the ':' and the whitespace around it, and
// returns the field the key names.
func (d *decoder) key() (int, error) {
	if !d.eat('"') {
		return 0, d.fail("expected a string object key")
	}
	raw, plain, err := d.str()
	if err != nil {
		return 0, err
	}
	if d.ws(); !d.eat(':') {
		return 0, d.fail("expected ':' after an object key")
	}
	d.ws()
	if plain {
		return asciiField(raw), nil
	}
	return keyField(raw), nil
}

// asciiField returns the field an ASCII key names, folding ASCII case.
func asciiField(key []byte) int {
	switch {
	case foldEq(key, "dense"):
		return fieldDense
	case foldEq(key, "sparse"):
		return fieldSparse
	case foldEq(key, "candidates"):
		return fieldCandidates
	case foldEq(key, "k"):
		return fieldK
	case foldEq(key, "timeout_ms"):
		return fieldTimeoutMS
	}
	return fieldNone
}

// foldEq reports whether key equals the lower-case name up to ASCII case.
func foldEq(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// keyField returns the field a key with escapes or non-ASCII bytes names:
// each rune, unescaped and UTF-8-coerced as encoding/json's unquote does,
// folded to the smallest of its simple-fold orbit as its foldName does. Of
// the non-ASCII runes only 'ſ' (to S) and the Kelvin sign (to K) fold into
// ASCII.
func keyField(raw []byte) int {
	var folded [len("candidates")]byte
	n := 0
	for i := 0; i < len(raw); {
		r, size := keyRune(raw[i:])
		i += size
		if r >= utf8.RuneSelf {
			r = foldRune(r)
		}
		if r >= utf8.RuneSelf || n == len(folded) {
			return fieldNone
		}
		folded[n] = byte(r)
		n++
	}
	return asciiField(folded[:n])
}

// keyRune decodes the first rune of a validated string's raw contents,
// U+FFFD for any that cannot be part of a field name: an invalid UTF-8 byte
// (encoding/json's unquote makes it U+FFFD too), a \u escape of a UTF-16
// surrogate (a pair decodes past the BMP, an unpaired half to U+FFFD, and
// no rune of either kind folds into ASCII), and the one-letter escapes,
// which stand for punctuation and control bytes.
func keyRune(s []byte) (rune, int) {
	switch {
	case s[0] < utf8.RuneSelf && s[0] != '\\':
		return rune(s[0]), 1
	case s[0] != '\\':
		return utf8.DecodeRune(s)
	case s[1] != 'u':
		return utf8.RuneError, 2
	}
	r, err := strconv.ParseUint(string(s[2:6]), 16, 16)
	if err != nil || utf16.IsSurrogate(rune(r)) {
		return utf8.RuneError, 6
	}
	return rune(r), 6
}

// foldRune returns the smallest rune of r's simple-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// skip consumes the value of a key no field takes, nested in depth open
// containers, validated as encoding/json's scanner validates it.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); c {
	case '{', '[':
		d.pos++
		if depth++; depth > maxDepth {
			return d.fail("exceeded max nesting depth")
		}
		closer := c + 2 // '}' or ']'
		if d.ws(); d.eat(closer) {
			return nil
		}
		for {
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			if err := d.skip(depth); err != nil {
				return err
			}
			if d.ws(); d.eat(closer) {
				return nil
			}
			if !d.eat(',') {
				return d.fail("expected ',' or the end of a container")
			}
			d.ws()
		}
	case '"':
		d.pos++
		_, _, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, err := d.number()
	return err
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
