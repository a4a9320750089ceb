package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process this benchmark starts, so that any way out
// (return, failed check, SIGINT/SIGTERM to the benchmark) kills and reaps
// them. Pdeathsig covers the one path code cannot: the benchmark itself
// being SIGKILLed.
var children struct {
	mu    sync.Mutex
	procs map[*child]bool
}

type child struct {
	name string
	cmd  *exec.Cmd
	log  *syncBuffer
	done chan struct{} // closed when Wait has returned
	err  error         // Wait's result, valid after done
}

// syncBuffer is a bytes.Buffer safe to read while the child still writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startChild launches a process whose combined output is kept in memory.
func startChild(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), log: &syncBuffer{}, done: make(chan struct{})}
	c.cmd.Stdout, c.cmd.Stderr = c.log, c.log
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	children.mu.Lock()
	if children.procs == nil {
		children.procs = make(map[*child]bool)
	}
	children.procs[c] = true
	children.mu.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		children.mu.Lock()
		delete(children.procs, c)
		children.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// signal sends sig and waits up to timeout for the process to end. It
// reports how long the process took and whether it ended in time.
func (c *child) signal(sig syscall.Signal, timeout time.Duration) (time.Duration, bool) {
	t0 := time.Now()
	_ = c.cmd.Process.Signal(sig) // fails only if the process is already gone
	select {
	case <-c.done:
		return time.Since(t0), true
	case <-time.After(timeout):
		return time.Since(t0), false
	}
}

// kill ends the process unconditionally and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // fails only if the process is already gone
	<-c.done
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// exitCode is the process's exit status after it has ended; -1 if a signal
// ended it.
func (c *child) exitCode() int {
	<-c.done
	return c.cmd.ProcessState.ExitCode()
}

// killAllChildren is the last line of defence on every exit path.
func killAllChildren() {
	children.mu.Lock()
	var cs []*child
	for c := range children.procs {
		cs = append(cs, c)
	}
	children.mu.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// killChildrenOnSignal makes SIGINT/SIGTERM to the benchmark take its
// children down with it. The returned stop function ends the watcher.
func killChildrenOnSignal() (stop func()) {
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-sigC:
			killAllChildren()
			os.Exit(130)
		case <-quit:
		}
	}()
	return func() {
		signal.Stop(sigC)
		close(quit)
		<-done
	}
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// waitHealthy polls /healthz until it answers 200 and accept(body) holds.
func waitHealthy(ctx context.Context, base string, c *child, accept func(body string) bool) error {
	hc := &http.Client{Timeout: time.Second}
	for {
		if c != nil && c.exited() {
			return fmt.Errorf("%s exited before it was healthy:\n%s", c.name, c.log)
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			var b bytes.Buffer
			_, _ = b.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (accept == nil || accept(b.String())) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", base, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// peakRSSMB reads VmHWM (the peak resident set) of a live process.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fsTypeName names the filesystem holding dir, so a report shows whether
// fsync went to a real disk. tmpfs would make every WAL figure meaningless.
func fsTypeName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// runDir makes a fresh directory for one daemon's files under the
// benchmark's output directory, which is inside the checkout and so on the
// checkout's filesystem.
func runDir(outDir, tag string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, "run-"+tag+"-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
