package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is resource use of this process and its live children (the
// cluster's role processes in wire_durable) at one instant. getrusage's
// RUSAGE_CHILDREN only counts children already waited for, so running
// children are read from /proc.
type procSample struct {
	cpu        time.Duration
	allocBytes uint64 // this process only
	gcPause    time.Duration
	rssPeakKiB int64
}

// clockTick is USER_HZ, 100 on every Linux the benchmark runs on.
const clockTick = 100

func sampleProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes = ms.TotalAlloc
	s.gcPause = time.Duration(ms.PauseTotalNs)
	s.rssPeakKiB = rssPeakKiB(os.Getpid())
	for _, pid := range childPIDs() {
		s.cpu += procCPU(pid)
		s.rssPeakKiB += rssPeakKiB(pid)
	}
	return s
}

// hostCPU reads the machine's CPU time so far from /proc/stat, in clock
// ticks: all of it, and the part the hypervisor gave to other guests
// while this one had work to run ("steal"). Zeros where /proc has no such
// line.
func hostCPU() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealSince is the share of the machine's CPU time since an earlier
// hostCPU reading that was stolen.
func stealSince(total0, steal0 uint64) float64 {
	total, steal := hostCPU()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// childPIDs lists this process's live children.
func childPIDs() []int {
	self := os.Getpid()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if f := statFields(pid); len(f) > 1 && f[1] == strconv.Itoa(self) {
			out = append(out, pid)
		}
	}
	return out
}

// killChildren sends SIGKILL to every live child; their owner reaps them.
func killChildren() {
	for _, pid := range childPIDs() {
		syscall.Kill(pid, syscall.SIGKILL)
	}
}

// statFields returns /proc/<pid>/stat from the state field on; comm may
// hold spaces, so everything up to the closing parenthesis is cut.
func statFields(pid int) []string {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil
	}
	i := strings.LastIndexByte(string(stat), ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(string(stat[i+1:]))
}

func procCPU(pid int) time.Duration {
	f := statFields(pid) // state ppid ... utime is field 14, stime 15 of the full line
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * time.Second / clockTick
}

// rssPeakKiB is the process's peak resident set (VmHWM).
func rssPeakKiB(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			return v
		}
	}
	return 0
}

// dirBytes is the size of every regular file under dir, walked from
// outside the program.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
