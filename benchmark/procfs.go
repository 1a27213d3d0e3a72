package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// clockTick is USER_HZ: /proc/<pid>/stat reports CPU time in these units.
// It is 100 on every Linux ABI Go runs on.
const clockTick = 100

// cpuTimes is a process's cumulative CPU time in seconds.
type cpuTimes struct{ User, Sys float64 }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.User - o.User, c.Sys - o.Sys} }
func (c cpuTimes) total() float64          { return c.User + c.Sys }

// parseProcStat extracts utime and stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(s string) (cpuTimes, error) {
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return cpuTimes{}, fmt.Errorf("proc stat: no command field in %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("proc stat: utime %q stime %q are not numbers", f[11], f[12])
	}
	return cpuTimes{User: float64(ut) / clockTick, Sys: float64(st) / clockTick}, nil
}

// parseProcStatusKB returns one "<key>:  <n> kB" field of /proc/<pid>/status
// (VmHWM is the peak resident set size).
func parseProcStatusKB(s, key string) (int64, error) {
	for _, line := range strings.Split(s, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// memStats is the part of runtime.MemStats the benchmark reads out of a
// /debug/pprof/heap?debug=1 dump.
type memStats struct {
	HeapAlloc uint64 // bytes of live heap (after a forced GC when gc=1)
	NumGC     uint64
	PauseNs   uint64 // summed over the dump's recent-pause ring
}

// parseMemStats reads the "# Name = value" trailer the heap profile's text
// form ends with. PauseNs is printed as the runtime's ring of recent pauses
// and is summed; with fewer than 256 collections that is the total.
func parseMemStats(r io.Reader) (memStats, error) {
	var m memStats
	seen := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok || !strings.HasPrefix(sc.Text(), "# ") {
			continue
		}
		var err error
		switch name {
		case "HeapAlloc":
			m.HeapAlloc, err = strconv.ParseUint(val, 10, 64)
			seen++
		case "NumGC":
			m.NumGC, err = strconv.ParseUint(val, 10, 64)
			seen++
		case "PauseNs":
			for _, p := range strings.Fields(strings.Trim(val, "[]")) {
				n, perr := strconv.ParseUint(p, 10, 64)
				if perr != nil {
					err = perr
					break
				}
				m.PauseNs += n
			}
			seen++
		}
		if err != nil {
			return m, fmt.Errorf("memstats: %s = %q: %w", name, val, err)
		}
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	if seen != 3 {
		return m, fmt.Errorf("memstats: found %d of HeapAlloc, NumGC, PauseNs", seen)
	}
	return m, nil
}
