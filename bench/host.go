package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// Host identifies the machine and build a result came from. compare refuses
// to set documents from different hosts against each other.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified,omitempty"`
}

// sameMachine reports whether two documents were measured on the same kind
// of host: CPU model and core count.
func (h Host) sameMachine(o Host) bool { return h.CPU == o.CPU && h.NProc == o.NProc }

func readHost() Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				h.Revision = kv.Value
			case "vcs.modified":
				h.Modified = kv.Value == "true"
			}
		}
	}
	return h
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// runtime.GOARCH where the file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
