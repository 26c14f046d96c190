package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTimes is a process's accumulated CPU time, in clock ticks.
type cpuTimes struct {
	User, Sys int64
}

// sub returns the CPU spent between two readings.
func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.User - o.User, c.Sys - o.Sys} }

// micros converts ticks to microseconds.
func ticksToMicros(t int64) float64 { return float64(t) * 1e6 / clockTicks }

// parseStat extracts utime and stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name (field 2) is parenthesized and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseStat(data []byte) (cpuTimes, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return cpuTimes{}, fmt.Errorf("stat: no command field")
	}
	// After ")" come field 3 (state) onwards.
	f := strings.Fields(string(data[end+1:]))
	const utime, stime = 14 - 3, 15 - 3
	if len(f) <= stime {
		return cpuTimes{}, fmt.Errorf("stat: %d fields after the command, want > %d", len(f), stime)
	}
	u, err := strconv.ParseInt(f[utime], 10, 64)
	if err != nil {
		return cpuTimes{}, fmt.Errorf("stat utime: %w", err)
	}
	s, err := strconv.ParseInt(f[stime], 10, 64)
	if err != nil {
		return cpuTimes{}, fmt.Errorf("stat stime: %w", err)
	}
	return cpuTimes{u, s}, nil
}

// readCPU reads the CPU time of pid ("self" for the calling process).
func readCPU(pid string) (cpuTimes, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseStat(data)
}

// parseStatusField returns the leading integer of a "Key:\tvalue [unit]"
// line of /proc/<pid>/status, e.g. VmHWM (kB) or Threads.
func parseStatusField(data []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			return 0, fmt.Errorf("status %s: empty value", key)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// readStatusField reads one integer field of /proc/<pid>/status.
func readStatusField(pid, key string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseStatusField(data, key)
}

// parseSNMP flattens /proc/net/snmp, whose sections come as a header line
// of names followed by a line of values ("Udp: InDatagrams ..." then
// "Udp: 123 ..."), into "Udp.InDatagrams"-style keys.
func parseSNMP(data []byte) (map[string]int64, error) {
	out := make(map[string]int64)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for i := 0; i+1 < len(lines); i += 2 {
		hp, hdr, ok1 := strings.Cut(lines[i], ":")
		vp, val, ok2 := strings.Cut(lines[i+1], ":")
		if !ok1 || !ok2 || hp != vp {
			return nil, fmt.Errorf("snmp: unpaired lines %q / %q", lines[i], lines[i+1])
		}
		names, vals := strings.Fields(hdr), strings.Fields(val)
		if len(names) != len(vals) {
			return nil, fmt.Errorf("snmp: %s has %d names and %d values", hp, len(names), len(vals))
		}
		for j, n := range names {
			v, err := strconv.ParseInt(vals[j], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("snmp %s.%s: %w", hp, n, err)
			}
			out[hp+"."+n] = v
		}
	}
	return out, nil
}

// readSNMP reads the network namespace's protocol counters.
func readSNMP() (map[string]int64, error) {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return nil, err
	}
	return parseSNMP(data)
}

// countDir counts the entries of a directory such as /proc/<pid>/fd.
func countDir(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	for {
		names, err := f.Readdirnames(4096)
		n += len(names)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// parseCPUList parses a kernel CPU list such as "0-3,6,8-9".
func parseCPUList(s string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(strings.TrimSpace(s), ",") {
		if part == "" {
			continue
		}
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("cpu list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil, fmt.Errorf("cpu list %q: %w", s, err)
			}
		}
		if b < a {
			return nil, fmt.Errorf("cpu list %q: descending range", s)
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("cpu list %q: empty", s)
	}
	return cpus, nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && k == "Cpus_allowed_list" {
			return parseCPUList(v)
		}
	}
	return nil, fmt.Errorf("status: no Cpus_allowed_list line")
}

// cpuListString renders cpus in taskset's list syntax.
func cpuListString(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}
