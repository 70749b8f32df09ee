package codec

import (
	"bytes"
	"errors"
	"testing"
	"testing/iotest"
)

// encodeAll writes one of every field, with a float run several stream
// buffers long, so a streaming Enc flushes mid-field-run.
func encodeAll(e *Enc, floats []float32) {
	e.U8(7)
	e.Bool(true)
	e.U32(0xDEADBEEF)
	e.U64(1 << 60)
	e.I64(-3)
	e.F32s(floats)
	e.Ints([]int{-1, 0, 1 << 40})
	e.Str("codec")
}

func testFloats() []float32 {
	v := make([]float32, 3*streamBuf/4+5)
	for i := range v {
		v[i] = float32(i) - 0.5
	}
	return v
}

// TestStreamMatchesRecord: a streaming Enc writes the bytes a record Enc
// builds, and a streaming Dec fed one byte per Read decodes what a Dec over
// the whole record does.
func TestStreamMatchesRecord(t *testing.T) {
	floats := testFloats()
	var rec Enc
	encodeAll(&rec, floats)
	var out bytes.Buffer
	e := NewWriter(&out)
	encodeAll(e, floats)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), rec.Buf) {
		t.Fatalf("stream wrote %d bytes, record holds %d different ones", out.Len(), len(rec.Buf))
	}

	// Counted fields belong to whole records, so the stream stops at the floats.
	d := NewReader(iotest.OneByteReader(bytes.NewReader(rec.Buf[:len(rec.Buf)-(4+3*8)-(4+5)])))
	got := make([]float32, len(floats))
	if d.U8() != 7 || !d.Bool() || d.U32() != 0xDEADBEEF || d.U64() != 1<<60 || d.I64() != -3 {
		t.Fatalf("fixed-width fields decode wrong (err %v)", d.Err())
	}
	d.F32sInto(got)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != floats[i] {
			t.Fatalf("float %d: %v, want %v", i, got[i], floats[i])
		}
	}

	r := NewDec(rec.Buf)
	r.U8()
	r.Bool()
	r.U32()
	r.U64()
	r.I64()
	if f := r.F32s(len(floats)); len(f) != len(floats) || f[len(f)-1] != floats[len(f)-1] {
		t.Fatal("record floats decode wrong")
	}
	if ints, s := r.Ints(), r.Str(); len(ints) != 3 || ints[0] != -1 || ints[2] != 1<<40 || s != "codec" {
		t.Fatalf("counted fields decode as %v %q", ints, s)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestErrors: a short record, a count past the end and trailing bytes are
// ErrMalformed, on a record and on a stream; the first error sticks; a
// stream's read or write error is returned as it is.
func TestErrors(t *testing.T) {
	for name, d := range map[string]*Dec{
		"short record":   NewDec([]byte{1, 2, 3}),
		"short stream":   NewReader(bytes.NewReader([]byte{1, 2, 3})),
		"trailing bytes": NewDec([]byte{1, 2, 3, 4, 5}),
		"trailing input": NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5})),
	} {
		d.U32()
		if err := d.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}

	var e Enc
	e.U32(1 << 20)
	d := NewDec(append(e.Buf, 0, 0, 0, 0))
	if n := d.Count(1); n != 0 || !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("count 2²⁰ over 4 bytes: n = %d, err = %v", n, d.Err())
	}
	d.Fail(errors.New("later"))
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Fatal("a later error replaced the first")
	}

	boom := errors.New("disk on fire")
	d = NewReader(iotest.ErrReader(boom))
	d.U64()
	if err := d.Done(); !errors.Is(err, boom) || errors.Is(err, ErrMalformed) {
		t.Fatalf("I/O error: err = %v, want it unwrapped", err)
	}
	w := NewWriter(failWriter{boom})
	encodeAll(w, testFloats())
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("write error: Flush = %v, want it unwrapped", err)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }
