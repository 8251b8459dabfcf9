package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostInfo is the host block every result carries.
type hostInfo struct {
	CPUModel        string   `json:"cpu_model"`
	Nproc           int      `json:"nproc"`
	GoVersion       string   `json:"go_version"`
	Commit          string   `json:"commit"`
	Workload        string   `json:"workload"`
	Seed            int64    `json:"seed"`
	Seconds         int      `json:"seconds"`
	Trace           bool     `json:"trace"`
	DriverCPUs      string   `json:"driver_cpus"`
	DaemonCPUs      string   `json:"daemon_cpus"`
	DriverGOMAXPROC int      `json:"driver_gomaxprocs"`
	DaemonGOMAXPROC int      `json:"daemon_gomaxprocs"`
	DaemonFlags     []string `json:"daemon_flags"`
	StealShare      float64  `json:"cpu_steal_share"`
	PortfolioGenS   float64  `json:"portfolio_generate_s,omitempty"`

	driverCPUs []int
	daemonCPUs []int
	cpuStart   cpuTimes
}

// cpuTimes is the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// readHost collects the static part of the host block and splits the
// allowed CPUs between the driver (first CPU) and the daemon (the rest).
func readHost(o options, wl workload) hostInfo {
	h := hostInfo{
		Nproc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Commit:    commitOf(o.root),
		Workload:  wl.name,
		Seed:      o.seed,
		Seconds:   o.seconds,
		Trace:     o.trace,
		cpuStart:  readCPUTimes(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cpus := allowedCPUs()
	if len(cpus) >= 2 {
		h.driverCPUs, h.daemonCPUs = cpus[:1], cpus[1:]
	} else {
		h.driverCPUs, h.daemonCPUs = cpus, cpus
	}
	h.DriverCPUs, h.DaemonCPUs = cpuList(h.driverCPUs), cpuList(h.daemonCPUs)
	h.DriverGOMAXPROC = len(h.driverCPUs)
	h.DaemonGOMAXPROC = len(h.daemonCPUs)
	return h
}

// finish records the CPU-steal share over the run.
func (h *hostInfo) finish() {
	end := readCPUTimes()
	if d := end.total - h.cpuStart.total; d > 0 {
		h.StealShare = float64(end.steal-h.cpuStart.steal) / float64(d)
	}
}

// commitOf names the checked-out code: the git commit when the checkout
// is a repository, otherwise a SHA-256 over go.mod and every file under
// cmd/ and internal/.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	for _, sub := range []string{"go.mod", "cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, sub), func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s %d\n", rel, len(data))
			h.Write(data)
			return nil
		})
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}

// allowedCPUs parses this process's Cpus_allowed_list.
func allowedCPUs() []int {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return []int{0}
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			var cpus []int
			for _, part := range strings.Split(strings.TrimSpace(v), ",") {
				lo, hi, isRange := strings.Cut(part, "-")
				a, err := strconv.Atoi(lo)
				if err != nil {
					continue
				}
				b := a
				if isRange {
					if b, err = strconv.Atoi(hi); err != nil {
						continue
					}
				}
				for c := a; c <= b; c++ {
					cpus = append(cpus, c)
				}
			}
			if len(cpus) > 0 {
				return cpus
			}
		}
	}
	return []int{0}
}

func cpuList(cpus []int) string {
	parts := make([]string, len(cpus))
	for i, c := range cpus {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// pinSelf moves every thread of this process onto cpus and sizes
// GOMAXPROCS to match, so the driver never competes with the daemon for a
// CPU. Inputs are generated before this, on every CPU.
func pinSelf(cpus []int) error {
	out, err := exec.Command("taskset", "-a", "-p", "-c", cpuList(cpus), strconv.Itoa(os.Getpid())).CombinedOutput()
	if err != nil {
		return fmt.Errorf("taskset: %v: %s", err, out)
	}
	runtime.GOMAXPROCS(len(cpus))
	return nil
}

// procStatus reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status in MiB.
func procStatusMiB(pid int, field string) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// procCPU returns the CPU time every thread of process pid has run,
// read from the kernel's per-process scheduler clock
// (MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)). It has nanosecond
// resolution, unlike the tick counts of /proc/<pid>/stat, and a kernel
// with paravirtual steal accounting leaves out the time the hypervisor
// gave to other guests. One read is one system call. It returns 0 when
// the process is gone.
func procCPU(pid int) time.Duration {
	var ts syscall.Timespec
	clock := uintptr(^pid<<3 | 2)
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// procWriteBytes returns write_bytes from /proc/<pid>/io.
func procWriteBytes(pid int) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "io"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n
		}
	}
	return 0
}

// printHost writes the host block as one JSON line before the result.
func (b *bench) printHost() {
	if b.in != nil {
		b.host.PortfolioGenS = b.in.genSeconds
	}
	line, _ := json.Marshal(struct {
		Host hostInfo `json:"host"`
	}{b.host})
	fmt.Println(string(line))
}
