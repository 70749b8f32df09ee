// Package hw models the hardware the paper evaluates on. Real GPUs are not
// available in this environment, so end-to-end comparisons combine two
// ingredients: real, measured CPU compute time for every kernel, and modelled
// transfer time for every byte that would cross a memory boundary (host↔device over PCIe, device↔device for all-reduce and
// model-parallel exchange). The systems being compared differ precisely in
// where parameters live and how many bytes they move, so this cost model
// preserves the paper's who-wins shape (Figures 11, 12, 13, 16) without
// pretending to reproduce absolute GPU throughput.
package hw

import (
	"fmt"
	"time"

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
