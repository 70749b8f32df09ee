package served

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TopKResponse is the /topk body as encoding/json types: the oracle
// appendTopK's bytes are checked against.
type TopKResponse struct {
	Items []ScoredItem `json:"items"`
}

// ScoredItem mirrors serve.Scored with the /topk body's field names.
type ScoredItem struct {
	Item  int     `json:"item"`
	Score float32 `json:"score"`
}

// parentDecode is the rule the /score and /topk bodies followed before the
// wire codec, and its oracle: json.Decoder.Decode into a zero ScoreRequest,
// then nothing but whitespace to the end (Token() == io.EOF).
func parentDecode(body []byte) (ScoreRequest, error) {
	var req ScoreRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return ScoreRequest{}, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return ScoreRequest{}, errors.New("trailing data after the JSON value")
	}
	return req, nil
}

// sameRequest compares two decoded requests field by field: float bits,
// lengths and nil-ness.
func sameRequest(a, b ScoreRequest) bool {
	if a.K != b.K || a.TimeoutMS != b.TimeoutMS ||
		(a.Dense == nil) != (b.Dense == nil) || len(a.Dense) != len(b.Dense) ||
		(a.Sparse == nil) != (b.Sparse == nil) || !slices.Equal(a.Sparse, b.Sparse) ||
		(a.Candidates == nil) != (b.Candidates == nil) || !slices.Equal(a.Candidates, b.Candidates) {
		return false
	}
	for i := range a.Dense {
		if math.Float32bits(a.Dense[i]) != math.Float32bits(b.Dense[i]) {
			return false
		}
	}
	return true
}

// checkDecode decodes body with the codec (through c, so scratch left by
// earlier bodies is in play) and with the parent rule, and fails unless they
// agree. It returns whether the body was accepted.
func checkDecode(t *testing.T, c *scoreCodec, body []byte) bool {
	t.Helper()
	want, wantErr := parentDecode(body)
	got, gotErr := c.decode(body)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr == nil && !sameRequest(got, want) {
		t.Fatalf("body %q: codec decoded %+v, encoding/json %+v", body, got, want)
	}
	return wantErr == nil
}

// genBody mirrors benchmark/serve.go's genRequests: 13 N(0,1) dense
// features, 26 sparse ids, n candidate ids, marshalled by encoding/json.
func genBody(t testing.TB, r *rand.Rand, n int) []byte {
	t.Helper()
	req := ScoreRequest{Dense: make([]float32, 13), Sparse: make([]int, 26), Candidates: make([]int, n)}
	for i := range req.Dense {
		req.Dense[i] = float32(r.NormFloat64())
	}
	for i := range req.Sparse {
		req.Sparse[i] = r.Intn(1 << 20)
	}
	for i := range req.Candidates {
		req.Candidates[i] = r.Intn(1 << 16)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// codecCases are the encoding/json behaviours a client can reach on
// ScoreRequest; FuzzDecodeScoreRequest's seed corpus carries the same
// bodies but the four depth-boundary ones (50 kB each: the fuzzer spends
// its time minimising their mutants). accept is what encoding/json does
// today, pinned so a Go release that changes a quirk shows up here by name.
var codecCases = []struct {
	name, body string
	accept     bool
}{
	{"canonical", `{"dense":[0.5,-1,2e-3],"sparse":[0,7],"candidates":[1,2,3],"k":2,"timeout_ms":5}`, true},
	{"empty-object", `{}`, true},
	{"top-null", ` null `, true},
	// Keys: bytes.EqualFold after unescaping.
	{"key-case", `{"Dense":[1],"SPARSE":[2],"CandiDates":[3],"K":4,"TIMEOUT_MS":5}`, true},
	{"key-escaped", `{"\u0064ense":[1],"sp\u0061rse":[2],"c\u0061ndidates":[3],"\u004B":4}`, true},
	{"key-long-s", "{\"\u017fparse\":[1],\"timeout_m\u017f\":2}", true},
	{"key-long-s-escaped", `{"\u017fparse":[1],"\u017FPARSE":[2]}`, true},
	{"key-kelvin", "{\"\u212a\":3}", true},
	{"key-kelvin-escaped", `{"\u212a":3}`, true},
	{"key-escape-not-letter", `{"de\nse":[1],"d\/ense":[2]}`, true},
	{"key-near-miss", "{\"dense \":[1],\"d\u00e9nse\":[2],\"dens\u0435\":[3],\"\":4,\"kk\":5}", true},
	{"key-invalid-utf8", "{\"dense\xff\":[1],\"\xc3\":2,\"k\xed\xa0\x80\":3}", true},
	{"key-surrogates", `{"\ud83d\ude00":1,"\ud800":2,"\udc00k":3,"k\ud800\udc00":4,"\ud800\u006b":5}`, true},
	{"key-too-long", `{"candidatesX":[1],"timeout_ms_":2}`, true},
	// Unknown keys: skipped, but validated.
	{"unknown-nested", `{"x":{"a":[1,{"b":null,"c":[true,false,"s"]}],"d":{}},"dense":[1],"y":[[],[[]],{}]}`, true},
	{"unknown-numbers", `{"x":-0.0e+00,"y":1E5,"z":[0,-1,2.5e-3,1e400]}`, true},
	{"unknown-trailing-comma", `{"x":[1,]}`, false},
	{"unknown-object-trailing-comma", `{"x":{"a":1,}}`, false},
	{"unknown-bad-literal", `{"x":tru}`, false},
	{"unknown-leading-zero", `{"x":01}`, false},
	{"unknown-key-not-string", `{"x":{a:1}}`, false},
	{"unknown-missing-colon", `{"x":{"a" 1}}`, false},
	{"unknown-unclosed", `{"x":[1,2}`, false},
	{"unknown-mismatched", `{"x":{"a":[}]}`, false},
	// Nesting: 10 000 open containers, the request object included.
	{"depth-nested", `{"x":` + strings.Repeat(`[{"a":`, 20) + `[1,"s",null]` + strings.Repeat("}]", 20) + `,"dense":[1]}`, true},
	{"depth-max", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"depth-over", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
	{"depth-max-objects", `{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`, true},
	{"depth-over-objects", `{"x":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`, false},
	// Duplicates: the last wins, decoding into the earlier slice.
	{"dup-shorter", `{"dense":[1,2,3],"dense":[4]}`, true},
	{"dup-null-elements-keep-stale", `{"dense":[1,2,3],"dense":[4],"dense":[null,null,null,null,null]}`, true},
	{"dup-null-elements-int", `{"candidates":[5,6,7],"candidates":[8],"candidates":[null,null,null,9]}`, true},
	{"dup-null-resets", `{"sparse":[1,2],"sparse":null,"sparse":[null,null]}`, true},
	{"dup-empty-resets", `{"dense":[1,2],"dense":[],"dense":[null,null]}`, true},
	{"dup-longer", `{"dense":[1],"dense":[2,3,null]}`, true},
	{"dup-int-null-keeps", `{"k":1,"k":null,"timeout_ms":3,"timeout_ms":4}`, true},
	{"dup-case-variants", `{"dense":[1,2],"DENSE":[null,3]}`, true},
	// null.
	{"null-fields", `{"dense":null,"sparse":null,"candidates":null,"k":null,"timeout_ms":null}`, true},
	{"null-elements", `{"dense":[null,1,null],"candidates":[null]}`, true},
	// Ints: strconv.ParseInt(…, 10, 64).
	{"int-fraction", `{"k":1.0}`, false},
	{"int-exponent", `{"k":1e2}`, false},
	{"int-element-fraction", `{"candidates":[1.5]}`, false},
	{"int-negative-zero", `{"k":-0,"candidates":[-0,-7]}`, true},
	{"int-max", `{"k":9223372036854775807,"timeout_ms":-9223372036854775808}`, true},
	{"int-overflow", `{"k":9223372036854775808}`, false},
	{"int-element-overflow", `{"sparse":[-9223372036854775809]}`, false},
	// Floats: strconv.ParseFloat(…, 32).
	{"float-overflow", `{"dense":[1e39]}`, false},
	{"float-overflow-negative", `{"dense":[-3.5e38]}`, false},
	{"float-max", `{"dense":[3.4028235e38,-3.4028234e38]}`, true},
	{"float-underflow", `{"dense":[1e-50,-1e-50,1e-45,1.4e-45]}`, true},
	{"float-negative-zero", `{"dense":[-0,-0.0,0e5]}`, true},
	{"float-long", `{"dense":[0.1000000000000000055511151231257827021181583404541015625,123456789012345678901234567890]}`, true},
	// Types.
	{"type-dense-string", `{"dense":"1"}`, false},
	{"type-dense-number", `{"dense":1}`, false},
	{"type-dense-object", `{"dense":{}}`, false},
	{"type-dense-bool", `{"dense":true}`, false},
	{"type-element-bool", `{"dense":[true]}`, false},
	{"type-element-array", `{"dense":[[1]]}`, false},
	{"type-element-object", `{"sparse":[{}]}`, false},
	{"type-element-string", `{"candidates":["1"]}`, false},
	{"type-int-string", `{"k":"1"}`, false},
	{"type-int-array", `{"k":[1]}`, false},
	{"type-int-bool", `{"timeout_ms":false}`, false},
	{"type-int-object", `{"k":{}}`, false},
	{"type-top-array", `[]`, false},
	{"type-top-number", `1`, false},
	{"type-top-string", `"dense"`, false},
	{"type-top-bool", `true`, false},
	// Strings: control bytes and bad escapes reject, any other byte passes.
	{"string-any-byte", "{\"x\":\"\x7f\xff\xfe\xed\xa0\x80\",\"y\":\"\\u00e9\\/\\b\\f\\n\\r\\t\\\\\\\"\"}", true},
	{"string-control", "{\"x\":\"a\tb\"}", false},
	{"string-control-in-key", "{\"de\x01nse\":[1]}", false},
	{"string-bad-escape", `{"x":"\q"}`, false},
	{"string-single-quote-escape", `{"x":"\'"}`, false},
	{"string-short-u", `{"x":"\u12"}`, false},
	{"string-bad-hex", `{"x":"\uZZZZ"}`, false},
	{"string-unterminated", `{"x":"abc`, false},
	// Whitespace: only space, tab, CR and LF.
	{"ws-crlf", "\r\n{\r\n\t\"dense\" :\t[ 1 ,\r\n 2 ] ,\"k\" : 3 }\r\n \t", true},
	{"ws-form-feed", "{\f\"dense\":[1]}", false},
	{"ws-vertical-tab", "{\"dense\":[1]}\v", false},
	{"ws-nbsp", "{\"dense\":[1]}\u00a0", false},
	{"ws-bom", "\ufeff{\"dense\":[1]}", false},
	// Trailing data.
	{"trailing-value", `{} {}`, false},
	{"trailing-bracket", `{}]`, false},
	{"trailing-garbage", `{"k":1}x`, false},
	{"trailing-after-null", `nullx`, false},
	// Syntax.
	{"empty-body", ``, false},
	{"only-whitespace", " \n\t", false},
	{"unclosed-object", `{`, false},
	{"unclosed-array", `{"dense":[1,2]`, false},
	{"missing-colon", `{"dense" [1]}`, false},
	{"missing-comma", `{"dense":[1 2]}`, false},
	{"leading-comma", `{,}`, false},
	{"trailing-comma", `{"k":1,}`, false},
	{"single-quotes", `{'k':1}`, false},
	{"bare-key", `{k:1}`, false},
	{"number-leading-dot", `{"dense":[.5]}`, false},
	{"number-trailing-dot", `{"dense":[1.]}`, false},
	{"number-bare-exponent", `{"dense":[1e]}`, false},
	{"number-exponent-sign-only", `{"dense":[1e+]}`, false},
	{"number-plus", `{"dense":[+1]}`, false},
	{"number-leading-zero", `{"dense":[01]}`, false},
	{"number-minus-only", `{"dense":[-]}`, false},
	{"number-nan", `{"dense":[NaN]}`, false},
	{"number-infinity", `{"dense":[Infinity]}`, false},
	{"number-hex", `{"k":0x10}`, false},
	{"literal-truncated", `{"k":nul}`, false},
	{"literal-long", `{"k":nulll}`, false},
}

// TestScoreCodecMatchesEncodingJSON: on every quirk case and on
// genRequests-shaped bodies, the codec accepts exactly what the parent rule
// accepts and decodes the same fields. One codec serves every body in turn,
// so scratch left by a longer earlier body is in play too.
func TestScoreCodecMatchesEncodingJSON(t *testing.T) {
	c := new(scoreCodec)
	for _, tc := range codecCases {
		if got := checkDecode(t, c, []byte(tc.body)); got != tc.accept {
			t.Errorf("%s: encoding/json accept=%v, the case pins %v", tc.name, got, tc.accept)
		}
	}
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 8, 128, 200, 8, 0} {
		body := genBody(t, r, n)
		if !checkDecode(t, c, body) {
			t.Fatalf("%d candidates: generated body refused", n)
		}
	}
}

// TestScoreCodecEncodeMatchesEncodingJSON: the writers are byte-identical to
// json.NewEncoder(…).Encode on the values where encoding/json switches
// format (1e-6, 1e21, the e-07 trim, -0, denormals, the float32 extremes),
// and refuse NaN and ±Inf as it does.
func TestScoreCodecEncodeMatchesEncodingJSON(t *testing.T) {
	edges := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 1e-6, 9.999999e-7, -1e-6, 1e-7, 1.5e-7, 1e-10, 1e-38, 1e-45,
		math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, 1e20, 9.999999e20, 1e21, -1e21, 1e22,
		123456789, 0.1, 1.0 / 3, 2.5e-8, 0.99999994,
	}
	checkEncode(t, edges, nil)
	checkEncode(t, []float32{}, nil)
	items := make([]serve.Scored, len(edges))
	for i, s := range edges {
		items[i] = serve.Scored{Item: i*7919 - 100000, Score: s}
	}
	checkEncode(t, nil, items)
	checkEncode(t, nil, []serve.Scored{})
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		checkEncode(t, []float32{1, bad}, nil)
		checkEncode(t, nil, []serve.Scored{{Item: 1, Score: 0.5}, {Item: 2, Score: bad}})
	}
}

// checkEncode compares appendScores (items == nil) or appendTopK with
// json.NewEncoder(…).Encode of the response the handler used to build.
func checkEncode(t testing.TB, scores []float32, items []serve.Scored) {
	t.Helper()
	var want bytes.Buffer
	var wantErr, gotErr error
	var got []byte
	prefix := []byte("prefix") // the writers append; what precedes must stay
	if items == nil {
		// The handler's scores are never null on the wire: nil encodes as [].
		wantErr = json.NewEncoder(&want).Encode(ScoreResponse{Scores: append([]float32{}, scores...)})
		got, gotErr = appendScores(prefix, scores)
	} else {
		out := TopKResponse{Items: make([]ScoredItem, len(items))}
		for i, it := range items {
			out.Items[i] = ScoredItem{Item: it.Item, Score: it.Score}
		}
		wantErr = json.NewEncoder(&want).Encode(out)
		got, gotErr = appendTopK(prefix, items)
	}
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("scores %v items %v: codec error %v, encoding/json error %v", scores, items, gotErr, wantErr)
	}
	if wantErr == nil && (!bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes())) {
		t.Fatalf("codec wrote %q, encoding/json %q", got, want.Bytes())
	}
}

// TestScoreCodecZeroAllocSteadyState: once a pooled codec has served a body
// of a size, decoding the next such body and encoding its response
// allocate nothing.
func TestScoreCodecZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 128} {
		body := genBody(t, r, n)
		c := new(scoreCodec)
		scores := make([]float32, n)
		items := make([]serve.Scored, n)
		for i := range scores {
			scores[i] = r.Float32()
			items[i] = serve.Scored{Item: r.Intn(1 << 20), Score: scores[i]}
		}
		run := func() {
			req, err := c.decode(body)
			if err != nil || len(req.Candidates) != n {
				t.Fatalf("decode: %v, %d candidates", err, len(req.Candidates))
			}
			if c.out, err = appendScores(c.out[:0], scores); err != nil {
				t.Fatal(err)
			}
			if c.out, err = appendTopK(c.out[:0], items); err != nil {
				t.Fatal(err)
			}
		}
		run() // grow the scratch
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Fatalf("%d candidates: %v allocations per decode+encode, want 0", n, allocs)
		}
	}
}

// TestScoreCodecFastPathTakesMarshalOutput: every body json.Marshal (and
// json.Encoder, with its newline) writes for a ScoreRequest — each slice
// nil, empty or filled, K and TimeoutMS zero and set, dense values at
// encoding/json's format edges — decodes on the fast path to what the
// parent rule decodes, allocating nothing once the scratch is warm. Of
// codecCases, the fast path takes only the rows in that form: exact keys,
// no whitespace, numbers only. Every other row goes to encoding/json.
func TestScoreCodecFastPathTakesMarshalOutput(t *testing.T) {
	edges := []float32{0, float32(math.Copysign(0, -1)), 1e-45, 1e-7, 1e21, math.MaxFloat32, -math.MaxFloat32}
	ids := []int{0, 7, 1 << 40, -3}
	c := new(scoreCodec)
	for _, dense := range [][]float32{nil, {}, edges} {
		for _, sparse := range [][]int{nil, {}, ids} {
			for _, candidates := range [][]int{nil, {}, ids[:2]} {
				for _, n := range []int{0, 5} {
					body, err := json.Marshal(ScoreRequest{Dense: dense, Sparse: sparse, Candidates: candidates, K: n, TimeoutMS: 2 * n})
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range [][]byte{body, append(body, '\n')} {
						want, err := parentDecode(b)
						if err != nil {
							t.Fatal(err)
						}
						got, ok := c.fast(b)
						if !ok || !sameRequest(got, want) {
							t.Fatalf("body %q: fast path took it %v as %+v, encoding/json decodes %+v", b, ok, got, want)
						}
						if allocs := testing.AllocsPerRun(10, func() { c.fast(b) }); allocs != 0 {
							t.Fatalf("body %q: %v allocations per fast decode, want 0", b, allocs)
						}
					}
				}
			}
		}
	}
	fast := map[string]bool{
		"canonical": true, "empty-object": true,
		"int-negative-zero": true, "int-max": true,
		"float-max": true, "float-underflow": true, "float-negative-zero": true, "float-long": true,
	}
	for _, tc := range codecCases {
		if _, ok := c.fast([]byte(tc.body)); ok != fast[tc.name] {
			t.Errorf("%s: fast path took it %v, want %v", tc.name, ok, fast[tc.name])
		}
	}
}

// FuzzDecodeScoreRequest: the codec and the parent rule agree on every
// body — accept or refuse, and when both accept, every field. The corpus
// under testdata/fuzz carries codecCases.
func FuzzDecodeScoreRequest(f *testing.F) {
	c := new(scoreCodec)
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBodyBytes {
			return
		}
		checkDecode(t, c, body)
	})
}

// FuzzEncodeScores: for arbitrary float32 bit patterns and item ids, 0–300
// of them, the writers are byte-identical to json.NewEncoder(…).Encode and
// refuse what it refuses.
func FuzzEncodeScores(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits []byte, n uint16, topK bool) {
		word := func(i int) uint32 {
			if len(bits) == 0 {
				return 0
			}
			var w [4]byte
			for j := range w {
				w[j] = bits[(4*i+j)%len(bits)]
			}
			return binary.LittleEndian.Uint32(w[:])
		}
		count := int(n) % 301
		scores := make([]float32, count)
		for i := range scores {
			scores[i] = math.Float32frombits(word(i))
		}
		if !topK {
			checkEncode(t, scores, nil)
			return
		}
		items := make([]serve.Scored, count)
		for i := range items {
			items[i] = serve.Scored{Item: int(int32(word(i+count) ^ 0x9e3779b9)), Score: scores[i]}
		}
		checkEncode(t, nil, items)
	})
}

// BenchmarkScoreCodec times one request body's decode and its /score
// response's encode, by the parent's encoding/json path and by the codec.
func BenchmarkScoreCodec(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{8, 128} {
		body := genBody(b, r, n)
		scores := make([]float32, n)
		for i := range scores {
			scores[i] = r.Float32()
		}
		b.Run("encoding_json/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			var out bytes.Buffer
			for i := 0; i < b.N; i++ {
				if _, err := parentDecode(body); err != nil {
					b.Fatal(err)
				}
				out.Reset()
				if err := json.NewEncoder(&out).Encode(ScoreResponse{Scores: scores}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("wire/"+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			c := new(scoreCodec)
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(body); err != nil {
					b.Fatal(err)
				}
				var err error
				if c.out, err = appendScores(c.out[:0], scores); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
