package checkpoint_test

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// BenchmarkSaveLoadModel saves and loads the model elrec-serve saves in the
// serving benchmark's timed set-up: RunSpec.Model at terabyte scale 0.01,
// dim 32 and rank 16, a 3.06 MB file.
func BenchmarkSaveLoadModel(b *testing.B) {
	s := core.DefaultRunSpec()
	s.DatasetScale, s.Dim, s.Rank = 0.01, 32, 16
	m, err := s.Model()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkpoint.SaveModel(&buf, m); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		buf.Reset()
		if err := checkpoint.SaveModel(&buf, m); err != nil {
			b.Fatal(err)
		}
		if err := checkpoint.LoadModel(bytes.NewReader(buf.Bytes()), m); err != nil {
			b.Fatal(err)
		}
	}
}
