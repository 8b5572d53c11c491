package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"riscvsim/internal/api"
)

// cluster is one simserver replica fronted by one simrouter, both real
// processes on loopback. The replica runs with the distributed tier's
// flags (router-assigned IDs, write-through checkpoints) so the session
// path is the deployed one.
type cluster struct {
	server, router *exec.Cmd
	serverURL      string
	routerURL      string
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

// startCluster launches the replica, waits for its health endpoint, then
// launches the router and waits until the router's ring reports the
// replica healthy. dir receives the checkpoint store and process logs.
func startCluster(binDir, dir string) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sp, err := freePort()
	if err != nil {
		return nil, err
	}
	rp, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &cluster{
		serverURL: fmt.Sprintf("http://127.0.0.1:%d", sp),
		routerURL: fmt.Sprintf("http://127.0.0.1:%d", rp),
	}
	c.server, err = launch(filepath.Join(binDir, "simserver"), filepath.Join(dir, "simserver.log"),
		"-addr", fmt.Sprintf("127.0.0.1:%d", sp),
		"-assigned-ids", "-write-through",
		"-spill-dir", filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	if err := waitFor(c.serverURL+api.V1Prefix+"/health", func(b []byte) bool { return true }); err != nil {
		c.stop()
		return nil, fmt.Errorf("simserver did not become healthy: %w", err)
	}
	c.router, err = launch(filepath.Join(binDir, "simrouter"), filepath.Join(dir, "simrouter.log"),
		"-addr", fmt.Sprintf("127.0.0.1:%d", rp),
		"-replicas", "sim1="+c.serverURL)
	if err != nil {
		c.stop()
		return nil, err
	}
	ringHealthy := func(b []byte) bool {
		var ring struct {
			Replicas []struct {
				Healthy bool `json:"healthy"`
			} `json:"replicas"`
		}
		return json.Unmarshal(b, &ring) == nil && len(ring.Replicas) == 1 && ring.Replicas[0].Healthy
	}
	if err := waitFor(c.routerURL+"/admin/ring", ringHealthy); err != nil {
		c.stop()
		return nil, fmt.Errorf("simrouter ring did not become healthy: %w", err)
	}
	return c, nil
}

func launch(bin, logPath string, args ...string) (*exec.Cmd, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without stopping the cluster, the kernel
	// kills the servers with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	// The child holds its own descriptor; ours is no longer needed.
	logf.Close()
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	return cmd, nil
}

// waitFor polls url until it answers 200 with a body ok accepts, for at
// most 10 s.
func waitFor(url string, ok func([]byte) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	cl := &http.Client{Timeout: time.Second}
	var last error
	for time.Now().Before(deadline) {
		resp, err := cl.Get(url)
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(b) {
				cl.CloseIdleConnections()
				return nil
			}
			last = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		} else {
			last = err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return last
}

// stop kills both processes and waits for them to exit.
func (c *cluster) stop() {
	for _, cmd := range []*exec.Cmd{c.router, c.server} {
		if cmd == nil || cmd.Process == nil {
			continue
		}
		_ = cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
		_ = cmd.Wait()                          // the exit status of a killed process is expected
	}
}

// cpuTicks returns the user+system CPU of simserver plus simrouter, in
// clock ticks.
func (c *cluster) cpuTicks() (int64, error) {
	var total int64
	for _, cmd := range []*exec.Cmd{c.server, c.router} {
		t, err := procCPUTicks(cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPUTicks reads utime+stime of a process from /proc/<pid>/stat.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return ut + st, nil
}

// serverPeakRSSMB reads simserver's peak resident set (VmHWM) in MiB.
func (c *cluster) serverPeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.server.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.server.Process.Pid)
}

// serverMetrics fetches the replica's self-instrumentation directly.
func (c *cluster) serverMetrics() (api.Metrics, error) {
	var m api.Metrics
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.serverURL+api.V1Prefix+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode /metrics: %w", err)
	}
	return m, nil
}
