package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/server"
)

// daemon is one mpcbfd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string // binary protocol, host:port
	http string // HTTP sidecar, host:port
	dir  string
	done chan struct{}
	werr error
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// stopAllDaemons kills every daemon still running; deferred by main so
// no process outlives the benchmark on any path.
func stopAllDaemons() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// freeAddrs returns n distinct loopback addresses no listener holds
// right now. The listeners stay open until all n are picked, or the
// kernel could hand the same port out twice.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startDaemon boots mpcbfd on dir with default flags apart from the
// addresses, the data dir and flags, and waits until /readyz answers.
func startDaemon(ctx context.Context, bin, dir string, flags []string) (*daemon, error) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return nil, err
	}
	addr, httpAddr := addrs[0], addrs[1]
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", addr, "-http", httpAddr, "-dir", dir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mpcbfd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, http: httpAddr, dir: dir, done: make(chan struct{})}
	go func() { d.werr = cmd.Wait(); close(d.done) }()
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()

	deadline := time.Now().Add(120 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("mpcbfd exited during start-up (%v); log: %s", d.werr, tail(dir+".log"))
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		default:
		}
		if resp, err := httpClient.Get("http://" + httpAddr + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("mpcbfd not ready after 120s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

// stop kills the daemon and waits for it to exit. The data dir stays
// intact: everything acked is in its WAL and snapshots.
func (d *daemon) stop() {
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.done
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// hwmMiB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) hwmMiB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the user+system CPU time the daemon has used. The
// kernel leaves time the hypervisor stole out of it, which is why the
// CPU cost per key stays put when a noisy neighbour moves throughput.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the line, in USER_HZ (100/s) ticks.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return (utime + stime) / 100, nil
}

// promSample is one scraped series: name with labels -> value.
type promSample map[string]float64

// metrics scrapes /metrics.
func (d *daemon) metrics() (promSample, error) {
	resp, err := httpClient.Get("http://" + d.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// delta returns how much the metric family name grew between two
// scrapes, summed over its labeled series.
func delta(before, after promSample, name string) float64 {
	d := 0.0
	for k, v := range after {
		if k == name || strings.HasPrefix(k, name+"{") {
			d += v - before[k]
		}
	}
	return d
}

// histMedianDelta returns the median of a Prometheus histogram's
// observations between two scrapes, interpolated linearly inside the
// power-of-two bucket it falls in, and the observation count.
func histMedianDelta(before, after promSample, name string) (float64, float64) {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		s, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		s = strings.TrimSuffix(s, `"}`)
		le := inf
		if s != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(s, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0, 0
	}
	total := bs[len(bs)-1].cum
	target := total / 2
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= target && b.cum > prev {
			hi := b.le
			if hi == inf {
				return lo, total
			}
			return lo + (hi-lo)*(target-prev)/(b.cum-prev), total
		}
		lo, prev = b.le, b.cum
	}
	return lo, total
}

var inf = float64(1 << 62)

// traces scrapes /debug/traces.
func (d *daemon) traces() (server.TracesReport, error) {
	var rep server.TracesReport
	resp, err := httpClient.Get("http://" + d.http + "/debug/traces")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&rep)
	return rep, err
}

// spanCollector scrapes /debug/traces of every daemon often enough that
// the fixed ring drops nothing, keeping each span once.
type spanCollector struct {
	mu      sync.Mutex
	spans   map[string]server.TraceEntry // "<daemon>/<span id>"
	last    []uint64                     // ring push totals at the last scrape
	dropped uint64
	stop    chan struct{}
	done    chan struct{}
}

const scrapeEvery = 20 * time.Millisecond

func collectSpans(ds []*daemon) *spanCollector {
	c := &spanCollector{
		spans: map[string]server.TraceEntry{},
		last:  make([]uint64, len(ds)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i, d := range ds {
		if rep, err := d.traces(); err == nil {
			c.last[i] = rep.Traced
		}
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			c.scrape(ds)
			select {
			case <-c.stop:
				c.scrape(ds)
				return
			case <-t.C:
			}
		}
	}()
	return c
}

func (c *spanCollector) scrape(ds []*daemon) {
	for i, d := range ds {
		rep, err := d.traces()
		if err != nil {
			continue
		}
		c.mu.Lock()
		if pushed := rep.Traced - c.last[i]; pushed > uint64(len(rep.Spans)) {
			c.dropped += pushed - uint64(len(rep.Spans))
		}
		c.last[i] = rep.Traced
		for _, s := range rep.Spans {
			c.spans[fmt.Sprintf("%d/%d", i, s.ID)] = s
		}
		c.mu.Unlock()
	}
}

// finish stops scraping and returns every span seen.
func (c *spanCollector) finish() ([]server.TraceEntry, uint64) {
	close(c.stop)
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]server.TraceEntry, 0, len(c.spans))
	for _, s := range c.spans {
		out = append(out, s)
	}
	return out, c.dropped
}
