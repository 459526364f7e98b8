package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ; Linux has fixed it at 100 on every
// architecture Go supports, so /proc CPU fields are in 10 ms units.
const clockTick = 100

// procStat is what the benchmark reads from /proc/<pid>/stat.
type procStat struct {
	cpu      time.Duration // utime + stime
	rssPages int64
}

// parseProcStat parses /proc/<pid>/stat. The command name (field 2) may
// contain spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(raw []byte) (procStat, error) {
	end := bytes.LastIndexByte(raw, ')')
	if end < 0 {
		return procStat{}, fmt.Errorf("procfs: stat without command field")
	}
	f := strings.Fields(string(raw[end+1:]))
	// f[0] is field 3 (state); utime, stime and rss are fields 14, 15 and 24.
	if len(f) < 22 {
		return procStat{}, fmt.Errorf("procfs: stat has %d fields after the command", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	rss, err3 := strconv.ParseInt(f[21], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procStat{}, fmt.Errorf("procfs: stat with non-numeric utime/stime/rss")
	}
	return procStat{
		cpu:      time.Duration(utime+stime) * time.Second / clockTick,
		rssPages: rss,
	}, nil
}

// procIO is what the benchmark reads from /proc/<pid>/io.
type procIO struct {
	bytes    int64 // rchar + wchar: every byte through read/write-like calls
	syscalls int64 // syscr + syscw
}

// parseKeyed parses "key: value" lines into integers (both /proc/<pid>/io
// and /proc/<pid>/status use the shape; non-numeric values are skipped).
func parseKeyed(raw []byte) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(string(raw), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[strings.TrimSpace(k)] = n
		}
	}
	return out
}

func parseProcIO(raw []byte) (procIO, error) {
	kv := parseKeyed(raw)
	for _, k := range []string{"rchar", "wchar", "syscr", "syscw"} {
		if _, ok := kv[k]; !ok {
			return procIO{}, fmt.Errorf("procfs: io without %s", k)
		}
	}
	return procIO{bytes: kv["rchar"] + kv["wchar"], syscalls: kv["syscr"] + kv["syscw"]}, nil
}

// parseCtxSwitches sums the voluntary and involuntary context switches of
// one /proc/<pid>/task/<tid>/status.
func parseCtxSwitches(raw []byte) int64 {
	kv := parseKeyed(raw)
	return kv["voluntary_ctxt_switches"] + kv["nonvoluntary_ctxt_switches"]
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal int64 }

func parseProcStatCPU(raw []byte) (cpuTimes, error) {
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var ct cpuTimes
		for i, s := range f[1:] {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("procfs: /proc/stat cpu field %d: %v", i, err)
			}
			if i < 8 { // user..steal; guest time is already inside user
				ct.total += n
			}
			if i == 7 {
				ct.steal = n
			}
		}
		return ct, nil
	}
	return cpuTimes{}, fmt.Errorf("procfs: /proc/stat without a cpu line")
}

// stealPct is the share of all CPU time the hypervisor took between two
// /proc/stat readings.
func stealPct(before, after cpuTimes) float64 {
	if d := after.total - before.total; d > 0 {
		return 100 * float64(after.steal-before.steal) / float64(d)
	}
	return 0
}

func readProcStat(pid int) (procStat, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(raw)
}

func readProcIO(pid int) (procIO, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return procIO{}, err
	}
	return parseProcIO(raw)
}

// readCtxSwitches sums context switches over every thread of the process.
func readCtxSwitches(pid int) (int64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("procfs: no tasks for pid %d", pid)
	}
	var total int64
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		total += parseCtxSwitches(raw)
	}
	return total, nil
}

func readCPUTimes() (cpuTimes, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseProcStatCPU(raw)
}

func rssMB(pages int64) float64 {
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}
