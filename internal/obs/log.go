package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is a log severity. The numeric values match log/slog so the logger
// can be swapped for an slog handler without renumbering call sites.
type Level int

// Severity levels, slog-compatible.
const (
	LevelDebug Level = -4
	LevelInfo  Level = 0
	LevelWarn  Level = 4
	LevelError Level = 8
)

// String returns the slog-style upper-case level name.
func (l Level) String() string {
	switch {
	case l < LevelInfo:
		return "DEBUG"
	case l < LevelWarn:
		return "INFO"
	case l < LevelError:
		return "WARN"
	default:
		return "ERROR"
	}
}

// ParseLevel maps a case-insensitive level name to its Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// Set parses s as ParseLevel does, which makes a *Level a flag.Value: a
// binary's -log-level refuses an unknown name while its flags are parsed.
func (l *Level) Set(s string) error {
	v, err := ParseLevel(s)
	*l = v
	return err
}

// Logger is a leveled key=value line logger (the log/slog text-handler
// shape: time=... level=... msg=... k=v ...). It is safe for concurrent
// use; every method on a nil *Logger is a no-op.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer // guarded by mu
	level atomic.Int32
	clock Clock
}

// NewLogger returns a logger writing records at or above level to w,
// timestamped by clock (nil: the system clock).
func NewLogger(w io.Writer, level Level, clock Clock) *Logger {
	l := &Logger{clock: OrSystem(clock)}
	l.level.Store(int32(level))
	l.mu.Lock()
	l.w = w
	l.mu.Unlock()
	return l
}

// Enabled reports whether records at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= Level(l.level.Load())
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// log formats one record and writes it under the lock (whole lines, so
// concurrent records never interleave).
func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	ts := l.clock.Now()
	var b strings.Builder
	b.WriteString("time=")
	b.WriteString(ts.UTC().Format(time.RFC3339Nano))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteValue(msg))
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprintf("%v", kv[i])
		}
		b.WriteByte(' ')
		b.WriteString(key)
		b.WriteByte('=')
		if i+1 < len(kv) {
			b.WriteString(formatValue(kv[i+1]))
		} else {
			// Odd trailing key, the slog convention for a missing value.
			b.WriteString("!MISSING")
		}
	}
	b.WriteByte('\n')
	line := b.String()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return
	}
	// A write error on a log sink is unreportable; drop the record.
	_, _ = io.WriteString(l.w, line)
}

// formatValue renders one attribute value, quoting when needed.
func formatValue(v any) string {
	switch v := v.(type) {
	case string:
		return quoteValue(v)
	case float64:
		return strconv.FormatFloat(v, 'g', 6, 64)
	case float32:
		return strconv.FormatFloat(float64(v), 'g', 6, 32)
	case error:
		return quoteValue(v.Error())
	case fmt.Stringer:
		return quoteValue(v.String())
	default:
		return quoteValue(fmt.Sprintf("%v", v))
	}
}

// quoteValue quotes s when it contains spaces, quotes or control bytes.
func quoteValue(s string) string {
	if s == "" {
		return `""`
	}
	if strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
