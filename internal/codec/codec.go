// Package codec is the one binary codec behind every byte this module
// persists or sends: checkpoint files (internal/checkpoint), the shard and
// epoch files and the frames and payloads of internal/distps. Fields are
// fixed-width little-endian; Enc appends them and Dec reads them back.
//
// Dec keeps its first error and turns every later read into a no-op that
// returns zero, so a format decodes a whole record and checks once at the
// end. Counts are bounded by the bytes left before they can size an
// allocation. A decode error wraps ErrMalformed; each format wraps it once
// more into its own sentinel.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ErrMalformed reports bytes that are not a record of the format being
// decoded: a record cut short, a count larger than the bytes left, or bytes
// after the end.
var ErrMalformed = errors.New("codec: malformed record")

// streamBuf is the buffer of an Enc made by NewWriter and of a Dec made by
// NewReader: the most of a stream either holds at once.
const streamBuf = 64 << 10

// Enc appends little-endian fields to Buf. An Enc made by NewWriter also
// writes Buf out whenever the next field would not fit, so a stream of any
// size passes through one buffer.
type Enc struct {
	Buf []byte
	w   io.Writer
	err error
}

// NewWriter returns an Enc that streams to w. Flush writes what is left.
func NewWriter(w io.Writer) *Enc {
	return &Enc{Buf: make([]byte, 0, streamBuf), w: w}
}

// room makes space for n more bytes of a streaming Enc.
func (e *Enc) room(n int) {
	if e.w != nil && cap(e.Buf)-len(e.Buf) < n {
		e.flush()
	}
}

func (e *Enc) flush() {
	if e.err == nil && len(e.Buf) > 0 {
		_, e.err = e.w.Write(e.Buf)
	}
	e.Buf = e.Buf[:0]
}

// Flush writes the buffered bytes of a streaming Enc and returns its first
// write error.
func (e *Enc) Flush() error {
	e.flush()
	return e.err
}

func (e *Enc) U8(v uint8) {
	e.room(1)
	e.Buf = append(e.Buf, v)
}

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
		return
	}
	e.U8(0)
}

func (e *Enc) U32(v uint32) {
	e.room(4)
	e.Buf = binary.LittleEndian.AppendUint32(e.Buf, v)
}

func (e *Enc) U64(v uint64) {
	e.room(8)
	e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v)
}

func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F32s appends v's bits, without a count.
func (e *Enc) F32s(v []float32) {
	for len(v) > 0 {
		n := len(v)
		if e.w != nil {
			e.room(4)
			n = min(n, (cap(e.Buf)-len(e.Buf))/4)
		}
		buf := slices.Grow(e.Buf, 4*n)
		for _, f := range v[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
		}
		e.Buf, v = buf, v[n:]
	}
}

// Ints appends a u32 count and each value as an i64.
func (e *Enc) Ints(v []int) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.I64(int64(x))
	}
}

// Str appends a u32 length and the bytes.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.room(len(s))
	e.Buf = append(e.Buf, s...)
}

// Dec reads fields from a record, or from a stream (NewReader).
type Dec struct {
	buf []byte
	off int
	r   io.Reader
	err error
}

// NewDec returns a Dec over the whole record b.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// NewReader returns a Dec that reads r through a buffer of its own. It
// decodes fixed-width fields and F32sInto; a count read from it is bounded
// by the bytes buffered, not by what r still holds, so a counted field
// belongs in a record read whole.
func NewReader(r io.Reader) *Dec {
	return &Dec{buf: make([]byte, 0, streamBuf), r: r}
}

// Err returns the first error.
func (d *Dec) Err() error { return d.err }

// Fail records err as the Dec's error unless it already has one, so the
// format's own checks (a field out of range, a shape that does not match)
// join the same first-error chain.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Dec) malformed(format string, args ...any) {
	d.Fail(fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...))
}

func (d *Dec) left() int { return len(d.buf) - d.off }

// fill tops a streaming Dec's buffer up to n unread bytes (n ≤ its size).
// It reports whether they are there; an I/O error other than the stream's
// end becomes the Dec's error as it is.
func (d *Dec) fill(n int) bool {
	if d.r == nil || d.err != nil {
		return false
	}
	k := copy(d.buf[:cap(d.buf)], d.buf[d.off:])
	m, err := io.ReadAtLeast(d.r, d.buf[k:cap(d.buf)], n-k)
	d.buf, d.off = d.buf[:k+m], 0
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		d.Fail(err)
	}
	return k+m >= n
}

// need reports whether n more bytes can be read.
func (d *Dec) need(n int) bool {
	if d.err == nil && d.left() < n && !d.fill(n) {
		d.malformed("record cut short")
	}
	return d.err == nil
}

func (d *Dec) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *Dec) Bool() bool { return d.U8() != 0 }

func (d *Dec) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *Dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *Dec) I64() int64 { return int64(d.U64()) }

// Count reads a u32 count of elements that take at least size bytes each.
// A count whose elements cannot fit in the bytes left is refused before it
// can size an allocation.
func (d *Dec) Count(size int) int {
	n := int(d.U32())
	if d.err == nil && n > d.left()/size {
		d.malformed("count %d of %d-byte elements exceeds the %d bytes left", n, size, d.left())
		return 0
	}
	return n
}

// F32sInto fills dst from the next len(dst) floats.
func (d *Dec) F32sInto(dst []float32) {
	for len(dst) > 0 && d.need(4) {
		n := min(len(dst), d.left()/4)
		b := d.buf[d.off : d.off+4*n]
		for i := range dst[:n] {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		d.off += 4 * n
		dst = dst[n:]
	}
}

// F32s reads n floats into a new slice, refusing n beyond the bytes left.
func (d *Dec) F32s(n int) []float32 {
	if d.err == nil && (n < 0 || n > d.left()/4) {
		d.malformed("%d floats exceed the %d bytes left", n, d.left())
	}
	if d.err != nil {
		return nil
	}
	out := make([]float32, n)
	d.F32sInto(out)
	return out
}

// Ints reads what Enc.Ints wrote.
func (d *Dec) Ints() []int {
	n := d.Count(8)
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.I64())
	}
	return out
}

// Str reads what Enc.Str wrote.
func (d *Dec) Str() string {
	n := d.Count(1)
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Done returns the first error, or ErrMalformed if bytes follow the
// record: in a record read whole, or before the end of a stream.
func (d *Dec) Done() error {
	if d.err == nil && (d.left() > 0 || d.fill(1)) {
		d.malformed("bytes after the end of the record")
	}
	return d.err
}
