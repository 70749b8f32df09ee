package bench

import (
	"fmt"
	"sort"

	"repro/internal/hw"
)

// runner regenerates one table or figure at the given scale.
type runner func(Scale) *Result

// registry maps experiment ids to their runners.
var registry = map[string]runner{
	"table2":       table2,
	"table3":       table3,
	"table4":       table4,
	"fig4a":        fig4a,
	"fig4b":        fig4b,
	"fig11":        func(sc Scale) *Result { return fig11(sc, hw.TeslaV100()) },
	"fig11-t4":     func(sc Scale) *Result { return fig11(sc, hw.TeslaT4()) },
	"fig12":        fig12,
	"fig13":        fig13,
	"fig14":        fig14,
	"fig15":        fig15,
	"fig16":        fig16,
	"fig17":        fig17,
	"fig18":        fig18,
	"ttcore":       ttCore,
	"servecore":    serveCore,
	"pipecache":    pipeCache,
	"ext-ttdepth":  extTTDepth,
	"ext-optim":    extOptim,
	"ext-hotratio": extHotRatio,
	"quality":      quality,
}

// Run executes the experiment with the given id.
func Run(id string, sc Scale) (*Result, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, List())
	}
	return fn(sc), nil
}

// List returns all experiment ids in sorted order.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
