package main

// matchd as a child process: start from the prebuilt binary, wait for
// its listener, read its CPU time and peak RSS from /proc, and stop it.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100
// on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one running matchd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	logFile *os.File
	done    chan struct{}
	waitErr error
}

// startDaemon execs bin with args plus a loopback listener whose
// address it learns through an -addr-file in dir, and returns once
// matchd is listening.
func startDaemon(bin string, args []string, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logFile, err := os.Create(filepath.Join(dir, "matchd.log"))
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// matchd must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start matchd: %w", err)
	}
	d := &daemon{cmd: cmd, logFile: logFile, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		logFile.Close()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = string(b)
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("matchd exited before listening: %v (log %s)", d.waitErr, logFile.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("matchd did not listen within 60s")
		}
	}
}

// pid returns the process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill ends the process at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
}

// stop asks for a graceful drain (SIGTERM) and waits; a drain that
// does not finish in time is killed and reported. A clean drain exits 0.
func (d *daemon) stop(timeout time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-d.done
		return fmt.Errorf("signal matchd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("matchd did not drain within %s", timeout)
	}
	if d.waitErr != nil {
		return fmt.Errorf("matchd drain: %w", d.waitErr)
	}
	return nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// utime and stime are fields 14 and 15 of stat(5); f[0] is field 3.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the process's resident-set high-water mark in MB.
func peakRSS(pid int) (float64, error) { return statusMB(pid, "VmHWM:") }

// rss returns the process's resident set size in MB.
func rss(pid int) (float64, error) { return statusMB(pid, "VmRSS:") }

// statusMB returns a kB field of /proc/<pid>/status in MB.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed %s %q", field, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// usage is a reading of a server process's resources.
type usage struct {
	cpu time.Duration
	// rss and peak are the resident set and its high-water mark, in MB.
	rss, peak float64
}

// readUsage reads process pid's CPU time and resident set.
func readUsage(pid int) (usage, error) {
	var u usage
	var err error
	if u.cpu, err = cpuTime(pid); err != nil {
		return u, err
	}
	if u.rss, err = rss(pid); err != nil {
		return u, err
	}
	u.peak, err = peakRSS(pid)
	return u, err
}

// hostCPU is the machine-wide CPU time of /proc/stat, in clock ticks.
type hostCPU struct{ total, steal int64 }

// readHostCPU reads the "cpu" line of /proc/stat; zero if unreadable.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	// user nice system idle iowait irq softirq steal: fields 1 to 8.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealShare returns the share of CPU time stolen since h0.
func (h hostCPU) stealShare(h0 hostCPU) float64 {
	if h.total <= h0.total {
		return 0
	}
	return float64(h.steal-h0.steal) / float64(h.total-h0.total)
}
