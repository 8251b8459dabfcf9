package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// daemon is one running mirabeld process.
type daemon struct {
	cmd  *exec.Cmd
	pid  int
	base string
	logf *os.File
	done chan error
}

// dataDir is the daemon's -data-dir on durable workloads.
func (b *bench) dataDir() string { return filepath.Join(b.work, "data") }

// prepareDataDir empties the data dir before a boot.
func (b *bench) prepareDataDir() error {
	if !b.wl.durable {
		return nil
	}
	if err := os.RemoveAll(b.dataDir()); err != nil {
		return err
	}
	return os.MkdirAll(b.dataDir(), 0o755)
}

// daemonFlags are the mirabeld flags of this workload (without -addr);
// seed false leaves out -seed-dir, for a reboot on an existing data dir.
func (b *bench) daemonFlags(seed bool) []string {
	flags := []string{
		"-shards", strconv.Itoa(shards),
		"-clock", epoch().Format(time.RFC3339),
		"-sweep", "0",
		"-log-level", "warn",
	}
	if b.wl.durable {
		flags = append(flags, "-data-dir", b.dataDir(), "-fsync", "always", "-snapshot-every", strconv.Itoa(snapshotEvery))
	}
	if b.wl.seeded && seed {
		flags = append(flags, "-seed-dir", b.in.seedDir, "-seed-approach", "peak")
	}
	return flags
}

// startDaemon execs mirabeld on the daemon CPUs and waits for /readyz to
// answer 200. It returns the daemon and the exec → ready time.
func startDaemon(b *bench, boot int, seed bool) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	flags := b.daemonFlags(seed)
	if seed {
		b.host.DaemonFlags = flags
	}
	logf, err := os.Create(filepath.Join(b.work, fmt.Sprintf("daemon-%d.log", boot)))
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-c", cpuList(b.host.daemonCPUs), b.o.daemon, "-addr", addr}, flags...)
	cmd := exec.Command("taskset", args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, base: "http://" + addr, logf: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()

	// Poll with a fresh connection per probe so no keep-alive state
	// leaks into the load client.
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := t0.Add(150 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, 0, fmt.Errorf("mirabeld exited during boot: %v (log %s)", err, logf.Name())
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	_ = d.kill()
	return nil, 0, fmt.Errorf("mirabeld not ready within 150s (log %s)", logf.Name())
}

// stop sends SIGTERM (graceful drain + final snapshot) and waits for the
// process to exit, killing it after 30 s.
func (d *daemon) stop() error {
	defer d.logf.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
		if err != nil {
			return fmt.Errorf("mirabeld exit: %v", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.kill()
		return fmt.Errorf("mirabeld did not stop within 30s")
	}
}

// kill ends the process immediately and reaps it.
func (d *daemon) kill() error {
	_ = d.cmd.Process.Kill()
	err := <-d.done
	d.done <- err
	return nil
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
