package distps

import (
	"log/slog"
	"strings"
	"testing"
	"time"
)

// lineWriter hands each write to a channel: slog's text handler writes one
// record per call.
type lineWriter chan string

func (w lineWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}

// TestSpawnRecoversPanic: a goroutine started through spawn that panics is
// logged at Error with its name, the panic value and the caller's id attrs,
// and the process lives on: the test goes on running and a goroutine
// spawned after it runs to completion.
func TestSpawnRecoversPanic(t *testing.T) {
	lines := make(lineWriter, 4)
	log := slog.New(slog.NewTextHandler(lines, nil))
	spawn(log, "lease renewal", func() { panic("renewal exploded") }, "worker", 3)
	select {
	case line := <-lines:
		for _, want := range []string{"level=ERROR", `msg="distps: goroutine panic"`, `goroutine="lease renewal"`, `panic="renewal exploded"`, "worker=3"} {
			if !strings.Contains(line, want) {
				t.Errorf("log line %q lacks %s", line, want)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no log line 10 s after the panic")
	}
	done := make(chan struct{})
	spawn(log, "after", func() { close(done) })
	<-done
}
