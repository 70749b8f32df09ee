package distps

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/data"
	"repro/internal/dlrm"
)

// TestReferenceLocsBuildsNoHostTable: placement builds the TT tables only. A
// host table's rows are the pipeline's (reference) or the shards' (remote)
// to allocate, so ReferenceLocs must allocate less than one of them.
func TestReferenceLocsBuildsNoHostTable(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sc := Scenario{
		Spec: data.Spec{
			Name: "distps-placement", NumDense: 3, TableRows: []int{50_000, 300_000},
			ZipfS: 1.1, ZipfV: 2, GroupSize: 8, ActiveGroups: 4, Locality: 0.5,
			Samples: 1 << 16, Seed: 5,
		},
		Model: dlrm.Config{NumDense: 3, EmbDim: 8, BottomSizes: []int{12}, TopSizes: []int{12}, LR: 0.5, Seed: 9},
		Rank:  4, TTThreshold: 200_000, Seed: 33, QueueDepth: 4,
	}
	hostBytes := uint64(sc.Spec.TableRows[0] * sc.Model.EmbDim * 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	locs, err := sc.ReferenceLocs()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if locs[0].HostRows != sc.Spec.TableRows[0] || locs[1].Device == nil {
		t.Fatalf("placement %+v, want table 0 on the host and table 1 on the device", locs)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= hostBytes {
		t.Fatalf("ReferenceLocs allocated %d bytes, at least the %d of the host table it leaves to the pipeline", got, hostBytes)
	}
}
