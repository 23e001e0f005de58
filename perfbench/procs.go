package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cardirectd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// startDaemon launches cardirectd with args on an ephemeral port and waits
// until it prints its listening address, which it does only once the
// world is loaded (and, for a replica, bootstrapped). Its log goes to
// logPath.
func startDaemon(ctx context.Context, bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-snapshot-on-exit=false"}, args...)...)
	cmd.Stderr = logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "cardirectd: listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, out)
	}()
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("cardirectd %v exited before listening (log: %s)", args, logPath)
	case <-time.After(120 * time.Second):
		d.stop()
		return nil, fmt.Errorf("cardirectd %v did not listen within 120s", args)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMiB reads the daemon's peak resident set size (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) { return d.statusMiB("VmHWM:") }

// statusMiB reads one kB field of the daemon's /proc status.
func (d *daemon) statusMiB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, d.cmd.Process.Pid)
}

// dirMiB sums the sizes of the regular files under dir.
func dirMiB(dir string) (float64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}
