package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark runs on are small shared virtual machines whose
// cores change speed by tens of percent for seconds at a time, each core on
// its own, as neighbours come and go. A timing taken on such a host says as
// much about the neighbours as about the code. So the timed sections are
// bracketed by runs of a fixed calibration kernel on the cores the server
// runs on, and the end-to-end timings are reported at the reference host
// speed: scaled by kernelRef / (the kernel's time around that section).
//
// For the kernel to see what the server sees, the two must share cores and
// nothing else may: the server and the calibrator are pinned to the server's
// CPUs, the load generator and its tick process to CPU 0. The kernel only
// runs while the server is idle (drained), so it never takes time from it.

// cpuMask is a sched_setaffinity mask (1024 CPUs).
type cpuMask [16]uint64

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// setAffinity pins one thread (0: the calling thread) to a CPU mask.
func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinSelf pins every thread of this process, and so every thread they start
// later, to a CPU set.
func pinSelf(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may have exited since the directory was read.
		if err := setAffinity(tid, maskOf(cpus)); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// loadgenCPUs and serverCPUs split the machine: CPU 0 for this process, the
// rest for the daemon. On one CPU they share it.
func loadgenCPUs() []int { return []int{0} }
func serverCPUs() []int {
	n := runtime.NumCPU()
	if n == 1 {
		return []int{0}
	}
	cpus := make([]int, 0, n-1)
	for c := 1; c < n; c++ {
		cpus = append(cpus, c)
	}
	return cpus
}

// getAffinity reads the calling thread's CPU mask.
func getAffinity() (m cpuMask, err error) {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

// pinFailed remembers that the host refused an affinity call, for the report
// header: the run goes on unpinned, and its timings are noisier for it.
var pinFailed error

// startPinned starts cmd with the given affinity: the child inherits the
// mask of the thread that forks it, which gets its own mask back afterwards.
func startPinned(cmd *exec.Cmd, cpus []int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity()
	if err == nil {
		err = setAffinity(0, maskOf(cpus))
	}
	if err != nil {
		pinFailed = err
		return cmd.Start()
	}
	defer setAffinity(0, old)
	return cmd.Start()
}

// kernelRef is the calibration kernel's time on the recording host at its
// usual speed. It only fixes the unit: a timing "at reference speed" is what
// the timing would have been had the kernel taken this long.
const kernelRef = 12 * time.Millisecond

// calArena is the kernel's random-access working set: larger than a core's
// private caches, like the server's heap.
const calArena = 1 << 23 // 8M uint32 = 32 MiB

// calState is the kernel's memory, allocated once.
type calState struct {
	next []uint32
	sink float64
}

func newCalState() *calState {
	s := &calState{next: make([]uint32, calArena)}
	// One cycle through the whole arena in a scrambled order, so each load
	// depends on the one before and misses the private caches.
	x := uint64(88172645463325252)
	perm := make([]uint32, calArena)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		s.next[perm[i]] = perm[(i+1)%len(perm)]
	}
	return s
}

// run is the calibration kernel: a fixed amount of the three kinds of work
// the server's time goes to — arithmetic, dependent loads from memory the
// private caches do not hold, and allocating and reading small string-keyed
// maps — in roughly the proportions a neighbour's interference was seen to
// slow the server by.
func (s *calState) run() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 2_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	idx := uint32(x) & 1023
	for i := 0; i < 50_000; i++ {
		idx = s.next[idx]
	}
	for i := 0; i < 13_000; i++ {
		m := make(map[string]float64, 3)
		m["sym"] = float64(idx & 1023)
		m["price"] = float64(i & 255)
		m["volume"] = float64(i&31 + 1)
		s.sink += m["price"]*m["volume"] + m["sym"]
	}
	return time.Since(t0)
}

// childEnv selects a helper role for a re-executed copy of this binary (or of
// the test binary): "calibrate", or "tick:<period>".
const childEnv = "STACKBENCH_CHILD"

// runChild runs the helper role the environment asks for, if any, and
// reports whether it did.
func runChild() bool {
	role, arg, _ := strings.Cut(os.Getenv(childEnv), ":")
	switch role {
	case "calibrate":
		calibrateMain()
	case "tick":
		period, err := time.ParseDuration(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tick child:", err)
			os.Exit(2)
		}
		tickMain(period)
	default:
		return false
	}
	return true
}

// calibrateMain is the calibrator child: for every byte on standard input,
// take one reading of the kernel and print it in nanoseconds.
func calibrateMain() {
	s := newCalState()
	for i := 0; i < 15; i++ {
		s.run() // fault the arena in, warm the allocator
	}
	in := bufio.NewReader(os.Stdin)
	fmt.Println("ready")
	for {
		if _, err := in.ReadByte(); err != nil {
			return
		}
		// One reading is the median of three runs: a burst that hits one of
		// them is not the host's speed.
		a, b, c := s.run(), s.run(), s.run()
		fmt.Println(max(min(a, b), min(max(a, b), c)).Nanoseconds())
	}
}

// calibrator is the handle on the calibrator child.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", childEnv+"=calibrate")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outp, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startPinned(cmd, serverCPUs()[:1]); err != nil {
		return nil, err
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewReader(outp)}
	if line, err := c.out.ReadString('\n'); err != nil || strings.TrimSpace(line) != "ready" {
		c.stop()
		return nil, fmt.Errorf("calibrator did not start: %q %v", line, err)
	}
	return c, nil
}

// measure runs the kernel once and returns how long it took. The server must
// be idle.
func (c *calibrator) measure() (time.Duration, error) {
	if _, err := c.in.Write([]byte{0}); err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	return time.Duration(ns), nil
}

func (c *calibrator) stop() {
	c.in.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}
