package distps

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/codec"
)

// msgCase is one message, its encoding and a type-erased decoder.
type msgCase struct {
	name   string
	msg    any
	bytes  []byte
	decode func([]byte) (any, error)
}

// codecs lists every message with a non-trivial payload, its encoder and a
// type-erased decoder, so round-trip and truncation checks cover the whole
// wire surface from one table.
func codecs() []msgCase {
	wrap := func(name string, m interface{ encode() []byte }, d func([]byte) (any, error)) msgCase {
		return msgCase{name, m, m.encode(), d}
	}
	hello := helloMsg{WorkerID: 7, Epoch: 3, Seed: 99, Dim: 8,
		Tables: []TableSpec{{Index: 0, Rows: 96}, {Index: 2, Rows: 64}}}
	hAck := helloAck{ShardID: 1, NumShards: 2}
	gather := gatherMsg{Table: 2, Rows: []int{5, 1, 63}}
	rows := rowsMsg{Dim: 2, Values: []float32{1.5, -2.25, 0, 3e7}}
	push := pushMsg{Epoch: 4, Seq: 19, Table: 1, Rows: []int{0, 9}, Dim: 2, Delta: []float32{0.5, -1, 2, -4}}
	pAck := pushAck{Applied: true}
	ver := versionMsg{Epoch: 4, Version: -60}
	vAck := versionAck{Version: 60}
	lease := leaseMsg{WorkerID: 12, Renew: true, Epoch: 9, TTLMS: 3000}
	lAck := leaseAck{Epoch: 10}
	stats := statsMsg{MaxSpans: 64}
	sAck := statsAck{ShardID: 1, NowUnixNanos: 1_700_000_000_000_000_000, EpochUnixNanos: 1_699_999_999_000_000_000,
		Dropped: 3, MetricsJSON: `{"counters":{"distps_srv_bytes_in":76}}`,
		Threads: map[int]string{101: "conn1", 7: "main"},
		Spans: []spanRec{
			{Name: "handle:gather", Cat: "rpc", TID: 101, Start: 1500, Dur: 20, Trace: 1 << 48, ID: 2<<48 + 1, Parent: 1 << 48},
			{Name: "", Cat: "", TID: 7, Start: -1, Dur: 0},
		}}
	em := errMsg{Code: codeFenced, Msg: "stale epoch"}
	return []msgCase{
		wrap("hello", hello, func(b []byte) (any, error) { return decodeHello(b) }),
		wrap("helloAck", hAck, func(b []byte) (any, error) { return decodeHelloAck(b) }),
		wrap("gather", gather, func(b []byte) (any, error) { return decodeGather(b) }),
		wrap("rows", rows, func(b []byte) (any, error) { return decodeRows(b) }),
		wrap("push", push, func(b []byte) (any, error) { return decodePush(b) }),
		wrap("pushAck", pAck, func(b []byte) (any, error) { return decodePushAck(b) }),
		wrap("version", ver, func(b []byte) (any, error) { return decodeVersion(b) }),
		wrap("versionAck", vAck, func(b []byte) (any, error) { return decodeVersionAck(b) }),
		wrap("lease", lease, func(b []byte) (any, error) { return decodeLease(b) }),
		wrap("leaseAck", lAck, func(b []byte) (any, error) { return decodeLeaseAck(b) }),
		wrap("stats", stats, func(b []byte) (any, error) { return decodeStats(b) }),
		wrap("statsAck", sAck, func(b []byte) (any, error) { return decodeStatsAck(b) }),
		wrap("err", em, func(b []byte) (any, error) { return decodeErr(b) }),
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, c := range codecs() {
		got, err := c.decode(c.bytes)
		if err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.msg) {
			t.Errorf("%s: round trip: got %+v, want %+v", c.name, got, c.msg)
		}
	}
}

// TestMessageTruncation cuts every payload at every byte boundary: a strict
// prefix must never decode successfully (the layouts carry explicit counts,
// so any cut lands mid-record), and appended garbage must be rejected too.
func TestMessageTruncation(t *testing.T) {
	for _, c := range codecs() {
		for cut := 0; cut < len(c.bytes); cut++ {
			if _, err := c.decode(c.bytes[:cut]); !errors.Is(err, errBadFrame) {
				t.Errorf("%s cut at %d/%d: err = %v, want errBadFrame", c.name, cut, len(c.bytes), err)
			}
		}
		padded := append(append([]byte(nil), c.bytes...), 0xAA)
		if _, err := c.decode(padded); !errors.Is(err, errBadFrame) {
			t.Errorf("%s with trailing byte: err = %v, want errBadFrame", c.name, err)
		}
	}
}

func TestErrorCodeMapping(t *testing.T) {
	sentinels := []error{errFenced, errLeaseHeld, errNotRestored, errNoCheckpoint,
		errSpecMismatch, errDraining, errBadRequest, errInternal}
	for _, want := range sentinels {
		code := codeFor(want)
		if got := sentinelFor(code); !errors.Is(got, want) {
			t.Errorf("sentinel %v → code %d → %v", want, code, got)
		}
	}
	// Wrapped errors keep their code; unknown errors degrade to internal.
	if codeFor(errors.Join(errFenced, errors.New("ctx"))) != codeFenced {
		t.Error("wrapped errFenced lost its code")
	}
	if codeFor(errors.New("mystery")) != codeInternal {
		t.Error("unknown error should map to codeInternal")
	}
	if !errors.Is(sentinelFor(200), errInternal) {
		t.Error("unknown code should map to errInternal")
	}
}

func TestDecodeRejectsInsaneCounts(t *testing.T) {
	var e codec.Enc
	e.U32(uint32(2))       // table
	e.U32(uint32(1 << 30)) // row count far beyond the payload
	if _, err := decodeGather(e.Buf); !errors.Is(err, errBadFrame) {
		t.Fatalf("insane count: err = %v, want errBadFrame", err)
	}
}

// FuzzMessageRoundTrip feeds arbitrary payloads to every decoder of the
// codecs table: none may panic, and whatever decodes must be a fixed point
// of encode → decode. The comparison is on the encodings, which are
// bit-exact where reflect.DeepEqual is not (a NaN is not equal to itself).
func FuzzMessageRoundTrip(f *testing.F) {
	table := codecs()
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		c := table[int(which)%len(table)]
		m, err := c.decode(b)
		if err != nil {
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("%s: err = %v, want errBadFrame", c.name, err)
			}
			return
		}
		once := m.(interface{ encode() []byte }).encode()
		m2, err := c.decode(once)
		if err != nil {
			t.Fatalf("%s: re-decoding its own encoding: %v", c.name, err)
		}
		if twice := m2.(interface{ encode() []byte }).encode(); !bytes.Equal(once, twice) {
			t.Fatalf("%s: encode → decode is not a fixed point:\n%x\n%x", c.name, once, twice)
		}
	})
}
