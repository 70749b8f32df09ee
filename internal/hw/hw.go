// Package hw models the hardware the paper evaluates on. Real GPUs are not
// available in this environment, so end-to-end comparisons combine two
// ingredients: real, measured CPU compute time for every kernel, and a
// simulated clock charging transfer time for every byte that would cross a
// memory boundary (host↔device over PCIe, device↔device for all-reduce and
// model-parallel exchange). The systems being compared differ precisely in
// where parameters live and how many bytes they move, so this cost model
// preserves the paper's who-wins shape (Figures 11, 12, 13, 16) without
// pretending to reproduce absolute GPU throughput.
package hw

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Device describes one compute location. ComputeScale is its throughput
// relative to the host CPU this repository actually measures on: kernels
// that would run on the device are charged measured-time / ComputeScale.
// The absolute values are rough (a V100 runs dense DLRM kernels on the
// order of 50× a CPU socket; a T4 around 20×); only the relative order
// matters for the who-wins shape of the end-to-end figures.
type Device struct {
	Name     string
	HBMBytes int64
	// ComputeScale is the device's speedup over the measurement host.
	ComputeScale float64
}

// Fits reports whether bytes (plus a reserve for activations/optimizer
// state) fit in the device memory.
func (d Device) Fits(bytes, reserve int64) bool {
	return bytes+reserve <= d.HBMBytes
}

// TeslaV100 models the paper's primary evaluation GPU (16 GB HBM2). The
// compute scale is a calibration constant: the effective speedup of the GPU
// over the measurement host for DLRM's mix of small GEMMs and scattered
// embedding access (far below peak-FLOP ratios), chosen together with
// PSRowLatency so the paper's single-GPU anchor ratios (Figure 11: EL-Rec
// ≈3x DLRM, ≈1.5x FAE) land in the right regime.
func TeslaV100() Device {
	return Device{Name: "Tesla V100", HBMBytes: 16 << 30, ComputeScale: 6}
}

// TeslaT4 models the secondary platform (16 GB GDDR6, notably lower
// training throughput than the V100).
func TeslaT4() Device {
	return Device{Name: "Tesla T4", HBMBytes: 16 << 30, ComputeScale: 2.5}
}

// HostCPU is the measurement host itself (scale 1): host-side embedding
// gathers and parameter-server updates are charged at measured time.
func HostCPU() Device {
	return Device{Name: "host CPU", HBMBytes: 192 << 30, ComputeScale: 1}
}

// SetHostWorkers bounds the parallelism of the measured host-side kernels
// (the tensor worker pool). Benchmarks pin this to 1 for stable,
// reproducible numbers, or raise it to emulate a wider host; it funnels
// through the tensor package's race-safe setter so it can be flipped while
// kernels are running.
func SetHostWorkers(n int) {
	tensor.SetMaxWorkers(n)
}

// HostWorkers reports the current host-side kernel parallelism bound.
func HostWorkers() int {
	return tensor.Workers()
}

// Link models an interconnect with a latency + bandwidth cost.
type Link struct {
	Name         string
	BandwidthBps float64
	Latency      time.Duration
}

// TransferTime returns the modeled time to move the given bytes.
func (l Link) TransferTime(bytes int64) time.Duration {
	if bytes < 0 {
		//elrec:invariant simulator parameter contract: negative quantities are programming errors
		panic(fmt.Sprintf("hw: negative transfer size %d", bytes))
	}
	if bytes == 0 {
		return 0
	}
	return l.Latency + time.Duration(float64(bytes)/l.BandwidthBps*float64(time.Second))
}

// PCIe3x16 models the host↔device link of the AWS p3/g4dn instances
// (~12 GB/s effective).
func PCIe3x16() Link {
	return Link{Name: "PCIe 3.0 x16", BandwidthBps: 12e9, Latency: 10 * time.Microsecond}
}

// NVLinkPair models the device↔device path on the p3.8xlarge (per-direction
// effective bandwidth of one NVLink brick pair).
func NVLinkPair() Link {
	return Link{Name: "NVLink", BandwidthBps: 45e9, Latency: 5 * time.Microsecond}
}

// PSRowLatency is the modeled host-side cost per embedding row accessed
// through the parameter server (hash lookup, framework dispatch, optimizer
// state) on top of the raw copy our Go implementation measures. Real PS
// stacks (the Python/Gloo path the paper's DLRM baseline runs) pay on the
// order of a microsecond per row; this constant is the second half of the
// Figure 11 calibration.
const PSRowLatency = 800 * time.Nanosecond

// PSAccessTime returns the modeled host-side overhead for touching the
// given number of embedding rows through the parameter server.
func PSAccessTime(rows int64) time.Duration {
	if rows < 0 {
		//elrec:invariant simulator parameter contract: negative quantities are programming errors
		panic("hw: negative row count")
	}
	return PSRowLatency * time.Duration(rows)
}

// AllReduceTime returns the modeled time of a ring all-reduce of the given
// payload across n devices: 2·(n−1)/n · bytes over the link.
func AllReduceTime(l Link, n int, bytes int64) time.Duration {
	if n <= 1 || bytes == 0 {
		return 0
	}
	eff := 2 * float64(n-1) / float64(n) * float64(bytes)
	return l.Latency*time.Duration(2*(n-1)) + time.Duration(eff/l.BandwidthBps*float64(time.Second))
}

// CollectiveLaunch is the modeled fixed cost of issuing one collective
// operator (kernel launch + NCCL synchronization), the overhead that makes
// per-table model-parallel exchanges expensive even when payloads are small.
const CollectiveLaunch = 50 * time.Microsecond

// CollectiveOverhead returns the fixed cost of count collective operators.
func CollectiveOverhead(count int) time.Duration {
	if count < 0 {
		//elrec:invariant simulator parameter contract: negative quantities are programming errors
		panic("hw: negative collective count")
	}
	return CollectiveLaunch * time.Duration(count)
}

// AllToAllTime returns the modeled time of an all-to-all exchange where each
// of n devices sends bytesPerPeer to every other device (model-parallel
// embedding exchange in HugeCTR/TorchRec-style systems).
func AllToAllTime(l Link, n int, bytesPerPeer int64) time.Duration {
	if n <= 1 || bytesPerPeer == 0 {
		return 0
	}
	total := float64(n-1) * float64(bytesPerPeer)
	return l.Latency*time.Duration(n-1) + time.Duration(total/l.BandwidthBps*float64(time.Second))
}

// SimClock accumulates simulated time from concurrent sources.
type SimClock struct {
	mu sync.Mutex
	d  time.Duration
}

// Add charges d of simulated time.
func (c *SimClock) Add(d time.Duration) {
	if d < 0 {
		//elrec:invariant simulator parameter contract: negative quantities are programming errors
		panic("hw: negative simulated time")
	}
	c.mu.Lock()
	c.d += d
	c.mu.Unlock()
}

// Elapsed returns the accumulated simulated time.
func (c *SimClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.d
}

// Reset clears the clock.
func (c *SimClock) Reset() {
	c.mu.Lock()
	c.d = 0
	c.mu.Unlock()
}

// Meter measures one experiment run: real compute time scaled by the device
// speed plus simulated communication time. Overlappable communication (the
// pipeline's prefetch) can be charged as overlapped, contributing only the
// amount exceeding the concurrent compute window.
type Meter struct {
	Device Device
	// Clock is the timestamp source Measure reads; nil uses the system
	// clock. Tests inject a manual clock for deterministic measurements.
	Clock obs.Clock

	mu      sync.Mutex
	compute time.Duration
	comm    time.Duration
}

// NewMeter returns a meter for the given device.
func NewMeter(dev Device) *Meter {
	if dev.ComputeScale <= 0 {
		//elrec:invariant simulator parameter contract: negative quantities are programming errors
		panic("hw: device with non-positive compute scale")
	}
	return &Meter{Device: dev}
}

// AddCompute charges measured wall time, rescaled by the device speed.
func (m *Meter) AddCompute(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.mu.Lock()
	m.compute += time.Duration(float64(d) / m.Device.ComputeScale)
	m.mu.Unlock()
}

// AddComm charges simulated serialized communication time.
func (m *Meter) AddComm(d time.Duration) {
	if d < 0 {
		//elrec:invariant simulator parameter contract: negative quantities are programming errors
		panic("hw: negative comm time")
	}
	m.mu.Lock()
	m.comm += d
	m.mu.Unlock()
}

// AddOverlappedComm charges communication that executes concurrently with a
// compute window: only the excess beyond the window serializes.
func (m *Meter) AddOverlappedComm(comm, window time.Duration) {
	if comm > window {
		m.AddComm(comm - window)
	}
}

// Compute returns the accumulated (rescaled) compute time.
func (m *Meter) Compute() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compute
}

// Comm returns the accumulated serialized communication time.
func (m *Meter) Comm() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.comm
}

// Total returns modeled end-to-end time.
func (m *Meter) Total() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compute + m.comm
}

// Throughput returns samples/second for n samples under the modeled time.
func (m *Meter) Throughput(samples int) float64 {
	t := m.Total()
	if t <= 0 {
		return 0
	}
	return float64(samples) / t.Seconds()
}

// Measure runs fn, charging its wall time as compute.
func (m *Meter) Measure(fn func()) {
	clock := obs.OrSystem(m.Clock)
	start := clock.Now()
	fn()
	m.AddCompute(obs.Since(clock, start))
}
