package main

// Process-level cost, read from /proc so that worker subprocesses count
// while they are still running (getrusage only sees reaped children). Off
// Linux every reading is 0.

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// clockTick is the kernel's USER_HZ, which /proc/<pid>/stat counts CPU time
// in; it is 100 on every Linux configuration Go supports.
const clockTick = 100

// statFields returns the fields of /proc/<pid>/stat after the command name
// (which may itself contain spaces): index 0 is the state, 1 the ppid.
func statFields(pid int) []string {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return nil
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(s[i+1:])
}

// benchPids returns this process and its live child processes (the worker
// subprocesses mpexec.SpawnLocal started).
func benchPids() []int {
	self := os.Getpid()
	pids := []int{self}
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == self {
			continue
		}
		if f := statFields(pid); len(f) > 1 && f[1] == strconv.Itoa(self) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// cpuSeconds sums user + system CPU time of the given processes so far.
func cpuSeconds(pids []int) float64 {
	var ticks int64
	for _, pid := range pids {
		if f := statFields(pid); len(f) > 12 {
			ut, _ := strconv.ParseInt(f[11], 10, 64)
			st, _ := strconv.ParseInt(f[12], 10, 64)
			ticks += ut + st
		}
	}
	return float64(ticks) / clockTick
}

// peakRSSMB returns the largest resident-set high-water mark (VmHWM) among
// the given processes, in MB.
func peakRSSMB(pids []int) float64 {
	var peakKB int64
	for _, pid := range pids {
		b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				peakKB = max(peakKB, kb)
			}
		}
	}
	return float64(peakKB) / 1024
}

// mallocs returns the bench process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// procCost brackets a timed span: start it, run the span, then read it.
type procCost struct {
	pids    []int
	cpu     float64
	mallocs uint64
}

func startProcCost() procCost {
	pids := benchPids()
	return procCost{pids: pids, cpu: cpuSeconds(pids), mallocs: mallocs()}
}

// report sets the proc.* metrics for a span that ran jobs jobs.
func (pc procCost) report(r *report, jobs int) {
	if jobs == 0 {
		return
	}
	r.set("proc.cpu_s_per_job", (cpuSeconds(pc.pids)-pc.cpu)/float64(jobs), jobs)
	r.set("proc.allocs_per_job", float64(mallocs()-pc.mallocs)/float64(jobs), jobs)
	r.set("proc.peak_rss_mb", peakRSSMB(pc.pids), 0)
}
