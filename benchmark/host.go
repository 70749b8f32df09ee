package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the host and toolchain a results.json was measured on; results
// are only ever compared between files whose hostInfo agrees on the CPU.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitCommit  string `json:"git_commit"`
}

func readHostInfo(ctx context.Context) hostInfo {
	h := hostInfo{
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitCommit:  "unknown",
	}
	if h.CPUModel == "" {
		h.CPUModel = "unknown"
	}
	// A checkout exported without .git has no commit to report.
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// procField returns the value of the first "key : value" line of a /proc
// text file, "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) in MB;
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField(path, "VmHWM"), " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("no VmHWM in %s: %w", path, err)
	}
	return kb / 1024, nil
}

// resetPeakRSS restarts this process's VmHWM at its current resident size
// (clear_refs value 5, Linux 4.0 and later). Best effort: where /proc is
// read-only the mark keeps counting from process start, which only makes
// peak_rss_mb include the discarded set-ups.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
