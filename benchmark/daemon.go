package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"bpms/internal/api"
	"bpms/internal/core"
	"bpms/internal/fault"
	"bpms/internal/resource"
	"bpms/internal/storage"
)

// daemon is one running BPMS server: a bpmsd child process in a real run,
// an in-process server in the traced replay and the smoke test.
type daemon interface {
	Base() string
	// Kill stops the server without a graceful shutdown where it can
	// (SIGKILL for a child) and waits until it is gone.
	Kill()
	// RSSPeakMiB is the server's peak resident set (VmHWM).
	RSSPeakMiB() float64
}

// launcher starts daemons for one workload run.
type launcher struct {
	bpmsd   string   // path of the built binary; "" serves in-process
	logPath string   // child stdout+stderr, appended across restarts
	fs      fault.FS // in-process only: filesystem under storage (nil = OS)
	wrap    func(http.Handler) http.Handler
}

// start launches a daemon and waits for /readyz. It returns how long that
// took from exec, which is recovery_s when dataDir holds state.
func (l *launcher) start(ctx context.Context, dataDir string, withUsers bool) (daemon, time.Duration, error) {
	if l.bpmsd == "" {
		return l.startInProcess(dataDir, withUsers)
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	if withUsers {
		// The directory is in-memory: users are configuration, and they
		// must exist before recovery re-issues work items to their roles.
		for _, u := range users {
			args = append(args, "-user", u.ID+"="+u.Role)
		}
	}
	logf, err := os.OpenFile(l.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	// CommandContext kills the child when ctx is cancelled (SIGINT).
	cmd := exec.CommandContext(ctx, l.bpmsd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start bpmsd: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, log: logf}
	if err := waitReady(ctx, c.base); err != nil {
		c.Kill()
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}

// freeAddr binds a free loopback port and releases it for the child.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitReady polls /readyz every quarter millisecond for up to 60 s: an
// in-memory server is ready in about 5 ms, so a coarser poll would be a
// visible share of the reading.
func waitReady(ctx context.Context, base string) error {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 2 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("bpmsd at %s not ready after 60s", base)
}

type child struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	hwm  float64 // captured by Kill, while /proc/<pid> still exists
}

func (c *child) Base() string { return c.base }

func (c *child) Kill() {
	if c.cmd.ProcessState != nil {
		return
	}
	c.hwm = c.RSSPeakMiB()
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait() // the exit status of a killed child carries nothing
	c.log.Close()
}

func (c *child) RSSPeakMiB() float64 {
	if c.cmd.ProcessState != nil {
		return c.hwm
	}
	return vmHWM(c.cmd.Process.Pid)
}

// vmHWM reads a process's peak resident set from /proc, in MiB.
func vmHWM(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// serverOptions mirrors bpmsd's default flags, so an in-process server
// does what the child does: group-commit WAL with durable acks, one shard,
// a snapshot every 1000 appends. checkDefaults holds it to the binary.
func serverOptions(dataDir string, withUsers bool, fs fault.FS) core.Options {
	opts := core.Options{
		DataDir:         dataDir,
		Shards:          1,
		SyncPolicy:      storage.SyncBatch,
		SyncInterval:    256,
		BatchMaxDelay:   2 * time.Millisecond,
		Durable:         true,
		HistoryStripes:  1,
		HistoryWindow:   100000,
		WorklistStripes: 1,
		RunTimers:       true,
		FS:              fs,
	}
	if dataDir != "" {
		opts.SnapshotEvery = 1000
	}
	if withUsers {
		for _, u := range users {
			opts.Users = append(opts.Users, resource.User{ID: u.ID, Roles: []string{u.Role}})
		}
	}
	return opts
}

// usageDefault matches one flag of `bpmsd -h` and the default its usage
// line ends with; the flag package prints none for a zero value.
var usageDefault = regexp.MustCompile(`(?m)^  -(\S+).*\n    \t.*?(?:\(default (.*)\))?$`)

// checkDefaults compares serverOptions with the defaults the built bpmsd
// prints. If a default in cmd/bpmsd changes, the child follows it; the
// traced replay and the recovery probe must not go on describing the old
// configuration without anyone noticing.
func checkDefaults(ctx context.Context, bpmsd string) error {
	usage, _ := exec.CommandContext(ctx, bpmsd, "-h").CombinedOutput() // -h exits non-zero by design
	got := map[string]string{}
	for _, m := range usageDefault.FindAllStringSubmatch(string(usage), -1) {
		got[m[1]] = m[2]
	}
	o := serverOptions("data", false, nil)
	want := map[string]string{
		"shards":           strconv.Itoa(o.Shards),
		"sync":             strconv.Quote(o.SyncPolicy.String()),
		"sync-every":       strconv.Itoa(o.SyncInterval),
		"sync-interval":    o.BatchMaxDelay.String(),
		"durable":          strconv.FormatBool(o.Durable),
		"snapshot-every":   strconv.Itoa(o.SnapshotEvery),
		"history-stripes":  strconv.Itoa(o.HistoryStripes),
		"history-window":   strconv.Itoa(o.HistoryWindow),
		"worklist-stripes": strconv.Itoa(o.WorklistStripes),
		// Left at zero by serverOptions: bpmsd must default them to zero too.
		"snapshot-interval": "", "wal-segment-size": "", "recovery-workers": "", "timer-stripes": "",
		"auto-allocate": "", "metrics": "", "audit-interval": "", "task-sla": "",
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			return fmt.Errorf("bpmsd -%s defaults to %q, the benchmark's in-process servers use %q: update serverOptions", name, g, w)
		}
	}
	return nil
}

type inProcess struct {
	sys     *core.BPMS
	handler http.Handler // what srv serves: the API, wrapped by launcher.wrap
	srv     *httptest.Server
}

// steadyClock is the system clock with the last nanosecond digit forced to
// 1. time.Time's JSON form drops trailing zeros, so real timestamps vary in
// length and the replay's byte counts would differ between two runs by a
// few parts in 100 000; with every timestamp nine digits long they repeat
// exactly.
type steadyClock struct{}

func (steadyClock) Now() time.Time {
	t := time.Now()
	return t.Add(time.Duration(1 - t.Nanosecond()%10))
}

func (l *launcher) startInProcess(dataDir string, withUsers bool) (daemon, time.Duration, error) {
	t0 := time.Now()
	opts := serverOptions(dataDir, withUsers, l.fs)
	opts.Clock = steadyClock{}
	sys, err := core.Open(opts)
	if err != nil {
		return nil, 0, err
	}
	h := api.New(sys).Handler()
	if l.wrap != nil {
		h = l.wrap(h)
	}
	return &inProcess{sys: sys, handler: h, srv: httptest.NewServer(h)}, time.Since(t0), nil
}

func (p *inProcess) Base() string { return p.srv.URL }

func (p *inProcess) Kill() {
	p.srv.Close()
	_ = p.sys.Close() // a process cannot SIGKILL itself; closing is the nearest stop
}

func (p *inProcess) RSSPeakMiB() float64 { return vmHWM(os.Getpid()) }

// buildBpmsd compiles cmd/bpmsd from the checkout into buildDir.
func buildBpmsd(ctx context.Context, root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "bpmsd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bpmsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/bpmsd: %v\n%s", err, out)
	}
	return bin, nil
}

// dirBytes sums the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	_ = filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a file the server removed mid-walk is not an error
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// tailOf returns the last n lines of a file, for failure reports.
func tailOf(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
