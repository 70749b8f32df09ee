package obs

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

func TestLoggerFormat(t *testing.T) {
	var buf strings.Builder
	clk := NewManual(time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	l := NewLogger(&buf, LevelInfo, clk)
	l.Info("training step", "step", 100, "loss", float64(0.5), "note", "two words")
	got := buf.String()
	want := `time=2026-08-06T12:00:00Z level=INFO msg="training step" step=100 loss=0.5 note="two words"` + "\n"
	if got != want {
		t.Fatalf("record mismatch:\n got %q\nwant %q", got, want)
	}
}

func TestLoggerLevelsAndNil(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, LevelWarn, NewManual(time.Unix(0, 0)))
	l.Debug("hidden")
	l.Info("hidden")
	l.Warn("shown")
	l.Error("shown too", "err", errors.New("boom boom"))
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("levels below warn must be suppressed:\n%s", out)
	}
	if !strings.Contains(out, "level=WARN msg=shown") || !strings.Contains(out, `err="boom boom"`) {
		t.Fatalf("missing records:\n%s", out)
	}
	if !l.Enabled(LevelError) || l.Enabled(LevelInfo) {
		t.Fatal("Enabled mismatch")
	}

	var nilLogger *Logger
	nilLogger.Info("no-op")
	if nilLogger.Enabled(LevelError) {
		t.Fatal("nil logger must report disabled")
	}
}

func TestLoggerOddKeyValueCount(t *testing.T) {
	var buf strings.Builder
	l := NewLogger(&buf, LevelInfo, NewManual(time.Unix(0, 0)))
	l.Info("msg", "dangling")
	if !strings.Contains(buf.String(), "dangling=!MISSING") {
		t.Fatalf("odd kv count must mark the missing value: %s", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"debug": LevelDebug, "INFO": LevelInfo, "Warn": LevelWarn, "error": LevelError} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("unknown level must error")
	}
}

func TestLevelIsAFlagValue(t *testing.T) {
	var level Level // the zero Level is info
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&level, "log-level", "")
	if err := fs.Parse([]string{"-log-level", "warn"}); err != nil || level != LevelWarn {
		t.Fatalf("-log-level warn: %v, %v", level, err)
	}
	if err := fs.Parse([]string{"-log-level", "loud"}); err == nil {
		t.Fatal("an unknown level parsed")
	}
}
