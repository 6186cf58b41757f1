package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of
// samples: the smallest value with at least q% of the samples at or
// below it. samples must be sorted and non-empty.
func percentile(sorted []float64, q float64) float64 {
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-th percentile of n samples.
// The slack keeps a product such as 99.9% of 10000 from rounding up
// past its exact integer value.
func rank(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)/100-1e-9)), 1)
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-th percentile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// tailPercentiles are the candidates for reporting a latency tail.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of tailPercentiles that
// has at least ten of n samples beyond it, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, q := range tailPercentiles {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// median returns the median of xs (0 for none) without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in the unit given.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// parseVmHWM extracts the peak resident set size in MiB from the text
// of /proc/<pid>/status.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMB reads this process's VmHWM.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// procField returns the value of the first "key: value" line of a
// /proc text file, or "unknown".
func procField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	for line := range strings.SplitSeq(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the commit the benchmark was built from, as go build
// stamps it from the checkout's version control, or "unknown".
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// cpuTimes returns the aggregate "cpu" line of /proc/stat (user, nice,
// system, idle, iowait, irq, softirq, steal, ...), or nil.
func cpuTimes() []int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]int64, len(f)-1)
	for i, s := range f[1:] {
		out[i], _ = strconv.ParseInt(s, 10, 64)
	}
	return out
}

// stealFrac is the share of CPU time between two cpuTimes readings that
// the hypervisor gave to other guests (-1 when unknown). A run with a
// high share ran on a contended host.
func stealFrac(before, after []int64) float64 {
	if len(before) < 8 || len(after) != len(before) {
		return -1
	}
	var total int64
	for i := range before {
		total += after[i] - before[i]
	}
	if total <= 0 {
		return -1
	}
	return float64(after[7]-before[7]) / float64(total)
}

// provenance describes the machine and build a record was taken on.
func provenance(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  procField("/proc/cpuinfo", "model name"),
		"mem_total":  procField("/proc/meminfo", "MemTotal"),
		"seed":       seed,
		"commit":     commit(),
	}
}
