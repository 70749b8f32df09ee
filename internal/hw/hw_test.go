package hw

import (
	"testing"
	"time"
)

func TestDeviceFits(t *testing.T) {
	dev := TeslaV100()
	if !dev.Fits(15<<30, 1<<29) {
		t.Fatal("15.5 GB should fit in 16 GB")
	}
	if dev.Fits(16<<30, 1) {
		t.Fatal("16 GB + 1 byte should not fit")
	}
}

func TestTransferTimeScalesWithBytes(t *testing.T) {
	l := PCIe3x16()
	small := l.TransferTime(1 << 20)
	big := l.TransferTime(1 << 30)
	if big <= small {
		t.Fatal("transfer time not increasing with size")
	}
	// 12 GB over 12 GB/s ≈ 1 s.
	sec := l.TransferTime(12e9)
	if sec < 900*time.Millisecond || sec > 1100*time.Millisecond {
		t.Fatalf("12GB transfer = %v want ≈1s", sec)
	}
	if l.TransferTime(0) != 0 {
		t.Fatal("zero bytes should cost nothing")
	}
}

func TestTransferTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative transfer did not panic")
		}
	}()
	PCIe3x16().TransferTime(-1)
}

func TestTransferLatencyFloor(t *testing.T) {
	l := PCIe3x16()
	if l.TransferTime(1) < l.Latency {
		t.Fatal("transfer below latency floor")
	}
}

func TestAllReduceTime(t *testing.T) {
	l := NVLinkPair()
	if AllReduceTime(l, 1, 1<<30) != 0 {
		t.Fatal("single device all-reduce should be free")
	}
	t2 := AllReduceTime(l, 2, 1<<30)
	t4 := AllReduceTime(l, 4, 1<<30)
	if t2 <= 0 || t4 <= t2 {
		t.Fatalf("ring all-reduce times t2=%v t4=%v", t2, t4)
	}
	// Ring factor 2(n-1)/n is bounded by 2: quadrupling devices must not
	// even double the time for fixed payload.
	if t4 > 2*t2 {
		t.Fatalf("all-reduce scaling broken: %v -> %v", t2, t4)
	}
}

func TestAllToAllTime(t *testing.T) {
	l := NVLinkPair()
	if AllToAllTime(l, 1, 1<<20) != 0 {
		t.Fatal("single device all-to-all should be free")
	}
	t2 := AllToAllTime(l, 2, 1<<20)
	t4 := AllToAllTime(l, 4, 1<<20)
	if t4 <= t2 {
		t.Fatalf("all-to-all should grow with device count: %v vs %v", t2, t4)
	}
}

func TestPSAccessTime(t *testing.T) {
	if PSAccessTime(0) != 0 {
		t.Fatal("zero rows should cost nothing")
	}
	if PSAccessTime(1000) != 1000*PSRowLatency {
		t.Fatalf("PSAccessTime(1000) = %v", PSAccessTime(1000))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative rows accepted")
		}
	}()
	PSAccessTime(-1)
}

func TestCollectiveOverhead(t *testing.T) {
	if CollectiveOverhead(0) != 0 {
		t.Fatal("zero collectives should cost nothing")
	}
	if CollectiveOverhead(3) != 3*CollectiveLaunch {
		t.Fatalf("CollectiveOverhead(3) = %v", CollectiveOverhead(3))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative count accepted")
		}
	}()
	CollectiveOverhead(-1)
}
