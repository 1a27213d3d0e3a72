package main

import (
	"strings"
	"testing"
)

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	const stat = "4242 (rpai server) (x)) S 1 4242 4242 0 -1 4194560 5120 0 3 0 1234 567 0 0 20 0 9 0 8812345 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0"
	c, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if c.User != 12.34 || c.Sys != 5.67 {
		t.Errorf("utime %v stime %v, want 12.34 5.67", c.User, c.Sys)
	}
	if got := c.sub(cpuTimes{User: 2.34, Sys: 0.67}).total(); got != 15 {
		t.Errorf("delta total %v, want 15", got)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 a b 13"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseProcStatus(t *testing.T) {
	const status = "Name:\trpaiserver\nVmPeak:\t 1234567 kB\nVmHWM:\t   81920 kB\nVmRSS:\t   40960 kB\nThreads:\t9\n"
	kb, err := parseProcStatusKB(status, "VmHWM")
	if err != nil || kb != 81920 {
		t.Errorf("VmHWM = %d, %v; want 81920", kb, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key parsed")
	}
	if _, err := parseProcStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("a malformed line parsed")
	}
}

func TestParseMemStats(t *testing.T) {
	// The tail of /debug/pprof/heap?debug=1, shortened.
	const dump = `heap profile: 1: 32 [4: 128] @ heap/1048576
1: 32 [4: 128] @ 0x1 0x2
#	0x1	main.f+0x1	/x.go:1

# runtime.MemStats
# Alloc = 23456789
# TotalAlloc = 9876543210
# HeapAlloc = 23456789
# HeapSys = 66666666
# NextGC = 44444444
# PauseNs = [100000 250000 0 0 50000]
# PauseEnd = [1 2 0 0 3]
# NumGC = 3
# NumForcedGC = 1
# GCCPUFraction = 0.01
# MaxRSS = 83886080
`
	m, err := parseMemStats(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if m.HeapAlloc != 23456789 || m.NumGC != 3 || m.PauseNs != 400000 {
		t.Errorf("parsed %+v, want HeapAlloc 23456789 NumGC 3 PauseNs 400000", m)
	}
	if _, err := parseMemStats(strings.NewReader("# HeapAlloc = 5\n")); err == nil {
		t.Error("a dump without NumGC and PauseNs parsed")
	}
	if _, err := parseMemStats(strings.NewReader("# HeapAlloc = x\n# NumGC = 1\n# PauseNs = []\n")); err == nil {
		t.Error("a non-numeric HeapAlloc parsed")
	}
}
