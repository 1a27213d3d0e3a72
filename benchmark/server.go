package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// buildServer compiles cmd/rpaiserver into bin. It runs from the benchmark
// module, whose go.mod replaces module rpai with the enclosing checkout, so
// the daemon is always built from the source tree the benchmark sits in.
func buildServer(benchDir, bin string) error {
	abs, err := filepath.Abs(bin)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs, "rpai/cmd/rpaiserver")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building rpaiserver: %w\n%s", err, out)
	}
	return nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed again before the child binds it; losing that race fails the run
// loudly (the child exits), it cannot corrupt a measurement.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// serverConfig is everything needed to start, and restart, one daemon.
type serverConfig struct {
	Bin        string
	Dir        string // -data
	Addr       string
	Pprof      string
	Shards     int
	GoMaxProcs int
	Queries    []QuerySpec
}

// argv is the exact child command line, also printed in the report header.
func (c serverConfig) argv() []string {
	a := []string{c.Bin, "-addr", c.Addr, "-partition", "sym", "-shards", strconv.Itoa(c.Shards),
		"-data", c.Dir, "-pprof", c.Pprof}
	for _, q := range c.Queries {
		a = append(a, "-register", q.SQL())
	}
	return a
}

// server is one running rpaiserver child.
type server struct {
	cfg     serverConfig
	cmd     *exec.Cmd
	log     *os.File
	started time.Time // just before exec
	waited  chan struct{}
	waitErr error
}

// start execs the daemon. Its output goes to a log file beside the data
// directory. The child is killed if this process dies first.
func (c serverConfig) start() (*server, error) {
	logf, err := os.OpenFile(c.Dir+".log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	argv := c.argv()
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(c.GoMaxProcs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cfg: c, cmd: cmd, log: logf, waited: make(chan struct{})}
	s.started = time.Now()
	if err := startPinned(cmd, serverCPUs()); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.waited)
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// exited reports whether the child is gone (a crash during a phase).
func (s *server) exited() bool {
	select {
	case <-s.waited:
		return true
	default:
		return false
	}
}

// kill is the crash: SIGKILL, then reap.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.waited
	s.log.Close()
}

// waitReady polls the listen address until it accepts a connection.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		nc, err := net.DialTimeout("tcp", s.cfg.Addr, time.Second)
		if err == nil {
			nc.Close()
			return nil
		}
		if s.exited() {
			return fmt.Errorf("rpaiserver exited during start-up (%v); see %s", s.waitErr, s.log.Name())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rpaiserver not accepting on %s after %v: %w", s.cfg.Addr, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) cpu() (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return cpuTimes{}, err
	}
	return parseProcStat(string(b))
}

func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(string(b), "VmHWM")
	return float64(kb) / 1024, err
}

// memStats forces a collection in the child and reads its MemStats.
func (s *server) memStats() (memStats, error) {
	resp, err := http.Get("http://" + s.cfg.Pprof + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return memStats{}, errors.New("pprof heap: " + resp.Status)
	}
	return parseMemStats(resp.Body)
}

// dirMB sums the sizes of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// copyDir copies the regular files and directories under src to dst.
func copyDir(dst, src string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
