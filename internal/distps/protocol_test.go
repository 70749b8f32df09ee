package distps

import (
	"bufio"
	"context"
	"errors"
	"log/slog"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// rpcNames are the protocol's RPC names in type order: what the error
// text, the spans and the per-RPC histograms carry.
var rpcNames = []string{"hello", "gather", "push", "checkpoint", "restore", "lease", "stats"}

// TestProtocolTable holds the rpcs table to the wire convention and the
// shard's dispatch to the table, over every possible type byte: each odd
// type below msgTypes except msgError has a named row, and a frame of
// that type with an empty payload is refused as a bad request naming the
// RPC; every other type is refused as an unexpected message.
func TestProtocolTable(t *testing.T) {
	shards, _ := tracedShards(t, testScenario(), 1)
	s := shards[0]
	var names []string
	for i := 0; i < 256; i++ {
		typ := uint8(i)
		request := typ%2 == 1 && typ < msgTypes && typ != msgError
		row, ok := lookup(typ)
		if ok != request {
			t.Fatalf("type %d: has row = %v, want %v", typ, ok, request)
		}
		if request {
			if row.name == "" || row.serve == nil {
				t.Fatalf("type %d: row %+v lacks a name or a handler", typ, row)
			}
			names = append(names, row.name)
		}
		rtype, body := s.dispatch(frame{Type: typ}, 0)
		if rtype != msgError {
			t.Fatalf("type %d with an empty payload answered type %d, want msgError", typ, rtype)
		}
		em, err := decodeErr(body)
		if err != nil {
			t.Fatal(err)
		}
		want := "unexpected message " + msgName(typ)
		if request {
			want = ": " + row.name + ": "
		}
		if !errors.Is(sentinelFor(em.Code), errBadRequest) || !strings.Contains(em.Msg, want) {
			t.Fatalf("type %d: refused with code %d %q, want errBadRequest containing %q", typ, em.Code, em.Msg, want)
		}
	}
	if !reflect.DeepEqual(names, rpcNames) {
		t.Fatalf("rows name %v, want %v", names, rpcNames)
	}
	handled := map[string]bool{}
	for _, sp := range s.trace.Spans() {
		handled[sp.Name] = true
	}
	for _, name := range rpcNames {
		if !handled["handle:"+name] {
			t.Fatalf("no handle:%s span among %v", name, handled)
		}
	}
	if msgName(msgStatsAck) != "stats" || msgName(msgError) != "error" || msgName(14) != "type-14" || msgName(0) != "type-0" {
		t.Fatal("msgName does not name responses after their requests")
	}
}

// TestProtocolInstruments pins the observable surface the table drives:
// the client's and the shard's per-RPC histogram names, and one
// worker-side span per RPC named after it.
func TestProtocolInstruments(t *testing.T) {
	sc := testScenario()
	shards, c := tracedShards(t, sc, 1)
	ctx := context.Background()
	if err := c.HelloAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AcquireLease(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.RenewLease(ctx); err != nil {
		t.Fatal(err)
	}
	table := c.cfg.Tables[0].Index
	if _, err := c.Gather(ctx, 0, table, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(ctx, 0, c.nextSeq(), table, []int{1}, make([]float32, sc.Model.EmbDim)); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckpointAll(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreAll(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}

	var got, want []string
	for name := range c.cfg.Metrics.Snapshot().Histograms {
		got = append(got, name)
	}
	for name := range shards[0].cfg.Metrics.Snapshot().Histograms {
		got = append(got, name)
	}
	for _, name := range rpcNames {
		want = append(want, "distps_rpc_"+name+"_ns", "distps_srv_"+name+"_ns")
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("histograms %v, want %v", got, want)
	}

	spans := map[string]bool{}
	for _, sp := range c.trace.Spans() {
		spans[sp.Name] = true
	}
	wantSpans := map[string]bool{}
	for _, name := range rpcNames {
		wantSpans[name] = true
	}
	if !reflect.DeepEqual(spans, wantSpans) {
		t.Fatalf("client spans %v, want one per RPC %v", spans, wantSpans)
	}
}

// fakeShard serves scripted replies on a loopback listener, each request
// frame answered by reply(request), and returns its address.
func fakeShard(t *testing.T, reply func(frame) frame) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	spawn(slog.Default(), "fake shard accept loop", func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			spawn(slog.Default(), "fake shard connection", func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					f, err := readFrame(br, 0)
					if err != nil {
						return
					}
					if writeFrame(conn, reply(f)) != nil {
						return
					}
				}
			})
		}
	})
	return ln.Addr().String()
}

// TestVersionAckMismatchFails: a shard that acks a checkpoint or restore
// of another version than the one asked for fails the coordinated call.
func TestVersionAckMismatchFails(t *testing.T) {
	// The fake shard answers Hello as shard 0 of 1 and acks everything else
	// as version 41.
	addr := fakeShard(t, func(f frame) frame {
		reply := versionAck{Version: 41}.encode()
		if f.Type == msgHello {
			reply = helloAck{NumShards: 1}.encode()
		}
		return frame{Type: ackFor(f.Type), ReqID: f.ReqID, Payload: reply}
	})
	c := newTestClient(t, testScenario(), []string{addr}, 1)
	ctx := context.Background()
	if err := c.CheckpointAll(ctx, 41); err != nil {
		t.Fatalf("matching ack: %v", err)
	}
	for name, call := range map[string]func(context.Context, int64) error{
		"CheckpointAll": c.CheckpointAll, "RestoreAll": c.RestoreAll,
	} {
		if err := call(ctx, 42); !errors.Is(err, errBadFrame) {
			t.Fatalf("%s(42) acked as 41: err = %v, want errBadFrame", name, err)
		}
	}
}

// TestReqIDMismatchPoisonsConnection: a response that carries another
// request's id fails the exchange with errBadFrame and poisons the
// connection, so the next exchange redials (distps_reconnects goes up) and
// succeeds.
func TestReqIDMismatchPoisonsConnection(t *testing.T) {
	// The fake shard answers Hello as shard 0 of 1, the first other request
	// under the wrong id, and every later one under its own.
	var skewed atomic.Bool
	addr := fakeShard(t, func(f frame) frame {
		if f.Type == msgHello {
			return frame{Type: msgHelloAck, ReqID: f.ReqID, Payload: helloAck{NumShards: 1}.encode()}
		}
		id := f.ReqID
		if !skewed.Swap(true) {
			id++
		}
		return frame{Type: ackFor(f.Type), ReqID: id}
	})
	c := newTestClient(t, testScenario(), []string{addr}, 1)
	reconnects := c.cfg.Metrics.Counter("distps_reconnects")
	sc := c.conns[0]
	if _, err := sc.roundTrip(c, msgStats, nil, obs.TraceContext{}); !errors.Is(err, errBadFrame) {
		t.Fatalf("mismatched response id: err = %v, want errBadFrame", err)
	}
	if n := reconnects.Value(); n != 1 {
		t.Fatalf("distps_reconnects = %d after the first exchange, want 1", n)
	}
	f, err := sc.roundTrip(c, msgStats, nil, obs.TraceContext{})
	if err != nil {
		t.Fatalf("exchange after the mismatch: %v", err)
	}
	if f.Type != msgStatsAck {
		t.Fatalf("reply type %s, want %s", msgName(f.Type), msgName(msgStatsAck))
	}
	if n := reconnects.Value(); n != 2 {
		t.Fatalf("distps_reconnects = %d, want 2: the poisoned connection was reused", n)
	}
}
