package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// brokerd is one running brokerd process, listening on loopback.
type brokerd struct {
	cmd  *exec.Cmd
	args []string // the flags brokerd was started with
	log  *os.File
	url  string
	done chan error
}

// startBrokerd launches bin on a free loopback port with production
// defaults, writing its request log to logPath, and waits until
// /readyz answers 200.
func startBrokerd(ctx context.Context, bin, logPath string) (*brokerd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open brokerd log: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("start brokerd: %w", err)
	}
	b := &brokerd{cmd: cmd, args: args, log: logf, url: "http://" + addr, done: make(chan error, 1)}
	go func() { b.done <- cmd.Wait() }()
	if err := b.waitReady(ctx); err != nil {
		b.stop()
		return nil, err
	}
	return b, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

func (b *brokerd) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-b.done:
			b.done <- err
			return fmt.Errorf("brokerd exited before ready: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(b.url + "/readyz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// A fine poll keeps the set-up time from being rounded to the poll.
		time.Sleep(200 * time.Microsecond)
	}
	return errors.New("brokerd not ready within 30s")
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (b *brokerd) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(b.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, fmt.Errorf("read brokerd status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in brokerd status")
}

// stop sends SIGTERM, waits up to 10s for a graceful exit, then kills
// the process and waits for it to end.
func (b *brokerd) stop() {
	_ = b.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-b.done:
	case <-time.After(10 * time.Second):
		_ = b.cmd.Process.Kill()
		<-b.done
	}
	_ = b.log.Close()
}
