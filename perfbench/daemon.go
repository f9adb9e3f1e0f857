package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"knncost/internal/service"
)

// daemon is one running knncostd process. Its stdout and stderr are drained
// continuously (the access log is on by default and would otherwise fill the
// pipe and stall the server); the last lines are kept for diagnostics.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	base string

	drained sync.WaitGroup
	mu      sync.Mutex
	tail    []string
}

// startDaemon execs knncostd with default flags except the deployment
// settings: a loopback ephemeral port, no boot relations, and cacheDir as
// the catalog cache and WAL directory. It returns once the daemon printed
// its listen address.
func startDaemon(bin, cacheDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-relations", "none", "-cache-dir", cacheDir)
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting knncostd: %w", err)
	}
	d := &daemon{cmd: cmd}
	addrCh := make(chan string, 1)
	d.drained.Add(2)
	go d.drain(stdout, addrCh)
	go d.drain(stderr, nil)
	select {
	case d.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("knncostd printed no listen address within 30s: %s", d.lastLines())
	}
	if d.addr == "" {
		d.kill()
		return nil, fmt.Errorf("knncostd exited before listening: %s", d.lastLines())
	}
	d.base = "http://" + d.addr
	return d, nil
}

// drain reads one output stream to EOF. On stdout it reports the listen
// address from the first line (or "" if the stream ends first).
func (d *daemon) drain(r io.Reader, addrCh chan<- string) {
	defer d.drained.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if addrCh != nil {
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				addrCh <- strings.TrimSpace(addr)
				addrCh = nil
			}
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
	if addrCh != nil {
		addrCh <- ""
	}
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop sends SIGTERM and waits for the graceful drain; anything but exit
// code 0 within the timeout is an error (the daemon is then killed).
func (d *daemon) stop(timeout time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling knncostd: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		d.drained.Wait()
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("knncostd exit after SIGTERM: %w\n%s", err, d.lastLines())
		}
		return nil
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("knncostd did not exit within %v of SIGTERM", timeout)
	}
}

// kill ends the process without the graceful path (error cleanup only).
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.drained.Wait()
	d.cmd.Wait()
}

// vmHWM reads the daemon's peak resident set size, in MB, from /proc.
func (d *daemon) vmHWM() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// setUp registers the schema over the public API and waits until every
// relation is ready. It returns the seconds from exec of the daemon until
// then, the running daemon, and the listing at readiness.
func setUp(ctx context.Context, cfg *config, hc *http.Client, bodies [][]byte, cacheDir string) (float64, *daemon, []service.RelationInfo, error) {
	start := time.Now()
	d, err := startDaemon(cfg.knncostd, cacheDir)
	if err != nil {
		return 0, nil, nil, err
	}
	fail := func(err error) (float64, *daemon, []service.RelationInfo, error) {
		d.kill()
		return 0, nil, nil, err
	}
	for _, body := range bodies {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/relations", bytes.NewReader(body))
		if err != nil {
			return fail(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return fail(fmt.Errorf("registering relation: %w", err))
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fail(fmt.Errorf("registering relation: status %d: %s", resp.StatusCode, msg))
		}
	}
	for {
		var list []service.RelationInfo
		if err := getJSON(ctx, hc, d.base+"/relations", &list); err != nil {
			return fail(err)
		}
		ready := 0
		for _, r := range list {
			switch r.State {
			case "ready":
				ready++
			case "failed":
				return fail(fmt.Errorf("relation %s failed to build: %s", r.Name, r.Error))
			}
		}
		if ready == len(bodies) {
			return time.Since(start).Seconds(), d, list, nil
		}
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// getJSON fetches url and decodes a 200 JSON body into v.
func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
