package dlrm

import "time"

// Timing splits one model's accumulated wall time into the embedding-side
// work (table lookups and updates) and the dense-side work (MLPs,
// interaction, loss). The experiment harness charges the two components to
// different compute locations under the hw model — for the PS-style DLRM
// baseline the embedding side runs on the host while the dense side runs on
// the device.
type Timing struct {
	Embed time.Duration
	Dense time.Duration
}

// Total returns the summed wall time.
func (t Timing) Total() time.Duration { return t.Embed + t.Dense }

// Timing returns the accumulated split since the last ResetTiming.
func (m *Model) Timing() Timing { return m.timing }

// ResetTiming clears the accumulated split.
func (m *Model) ResetTiming() { m.timing = Timing{} }
