package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one nobld process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string // scratch directory removed on stop ("" = none)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with the fixed flags plus extra and returns once
// /healthz answers.  port 0 picks a free one.
func startDaemon(bin string, port int, flags []string, dir string) (*daemon, error) {
	if port == 0 {
		var err error
		if port, err = freePort(); err != nil {
			return nil, err
		}
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start nobld: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir}
	if err := d.waitHealthy(20 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	c := newClient(d.base, 1)
	defer c.close()
	deadline := time.Now().Add(limit)
	for {
		var h struct {
			Status string `json:"status"`
		}
		if err := c.getJSON("/healthz", &h); err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nobld at %s not healthy after %v", d.base, limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop drains the daemon with SIGINT, kills it if it does not exit in
// time, waits for it, and removes its scratch directory.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGINT) // already exited is fine: Wait reports it
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a signalled daemon is not a benchmark outcome
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}
