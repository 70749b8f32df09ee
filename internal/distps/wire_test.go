package distps

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{1, 2, 3}, 1000)}
	var buf bytes.Buffer
	for i, p := range payloads {
		f := frame{Type: uint8(i + 1), ReqID: uint64(100 + i), Payload: p,
			Trace: uint64(i) * 0x1000000000000001, Span: uint64(i) * 3}
		if err := writeFrame(&buf, f); err != nil {
			t.Fatalf("writeFrame(%d): %v", i, err)
		}
	}
	br := bufio.NewReader(&buf)
	for i, p := range payloads {
		f, err := readFrame(br, 0)
		if err != nil {
			t.Fatalf("readFrame(%d): %v", i, err)
		}
		if f.Type != uint8(i+1) || f.ReqID != uint64(100+i) || !bytes.Equal(f.Payload, p) {
			t.Fatalf("frame %d: got %+v, want payload %v", i, f, p)
		}
		if f.Trace != uint64(i)*0x1000000000000001 || f.Span != uint64(i)*3 {
			t.Fatalf("frame %d: trace context %#x/%#x did not survive the round trip", i, f.Trace, f.Span)
		}
	}
	if _, err := readFrame(br, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	encode := func(mutate func([]byte)) *bufio.Reader {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame{Type: msgGather, ReqID: 7, Payload: []byte("abcdef")}); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		mutate(b)
		return bufio.NewReader(bytes.NewReader(b))
	}
	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"payload bit flip", func(b []byte) { b[headerSize] ^= 0x80 }},
		{"checksum flip", func(b []byte) { b[34] ^= 1 }},
		{"bad magic", func(b []byte) { b[0] = 0 }},
		{"wire version skew", func(b []byte) { b[4] = 99 }},
	}
	for _, tc := range cases {
		if _, err := readFrame(encode(tc.mutate), 0); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: err = %v, want errBadFrame", tc.name, err)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{Type: msgPush, ReqID: 9, Payload: []byte("payload bytes")}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every strict prefix must fail: a cut inside the header or the payload
	// is errBadFrame; zero bytes is a clean EOF between frames.
	for cut := 0; cut < len(whole); cut++ {
		_, err := readFrame(bufio.NewReader(bytes.NewReader(whole[:cut])), 0)
		if cut == 0 {
			if !errors.Is(err, io.EOF) || errors.Is(err, errBadFrame) {
				t.Fatalf("cut 0: err = %v, want clean io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, errBadFrame) {
			t.Fatalf("cut %d: err = %v, want errBadFrame", cut, err)
		}
	}
}

func TestFramePayloadCap(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{Type: msgRows, Payload: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bufio.NewReader(&buf), 512); !errors.Is(err, errBadFrame) {
		t.Fatalf("oversized payload: err = %v, want errBadFrame", err)
	}
}

// FuzzReadFrame: readFrame never panics on arbitrary bytes, and a frame it
// accepts re-encodes to exactly the bytes it consumed; readFrame of
// writeFrame(f) is f for any field values.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ uint8, reqID, trace, span uint64, payload, raw []byte) {
		want := frame{Type: typ, ReqID: reqID, Trace: trace, Span: span, Payload: payload}
		var buf bytes.Buffer
		if err := writeFrame(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(bufio.NewReader(&buf), 0)
		if err != nil {
			t.Fatalf("readFrame(writeFrame(%+v)): %v", want, err)
		}
		if got.Type != want.Type || got.ReqID != want.ReqID || got.Trace != want.Trace ||
			got.Span != want.Span || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}

		// A small cap keeps a hostile length field from sizing a large buffer.
		parsed, err := readFrame(bufio.NewReader(bytes.NewReader(raw)), 1<<16)
		if err != nil {
			if !errors.Is(err, errBadFrame) && !errors.Is(err, io.EOF) {
				t.Fatalf("readFrame(%x): err = %v, want errBadFrame or io.EOF", raw, err)
			}
			return
		}
		buf.Reset()
		if err := writeFrame(&buf, parsed); err != nil {
			t.Fatal(err)
		}
		if n := buf.Len(); !bytes.Equal(buf.Bytes(), raw[:n]) {
			t.Fatalf("accepted frame re-encodes to %x, read from %x", buf.Bytes(), raw[:n])
		}
	})
}
