// Daemon lifecycle: build cmd/nyquistd, spawn it with the fixed flags,
// learn its addresses from the lines it prints, watch its stderr, and
// make sure it is dead and its data directory gone on every way out. A
// daemon leaked by one run steals a core from the next.

package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonFlags are identical for every run of every workload; bench/README.md
// states them. Time-triggered background work (snapshots, scrubs, estimator
// state records) is off so that no run straddles a timer and the WAL's size
// at the checkpoint is a function of the input alone; everything not named
// here is the daemon's default.
func daemonFlags(dataDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-bulk-addr", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-snapshot-every", "-1s",
		"-scrub-every", "-1s",
		"-state-every", "-1s",
		"-slow-query", "-1s",
		"-log-level", "error",
	}
}

// cleaner runs registered undo steps exactly once, newest first. main
// defers it (so a return and a panic both pass through it) and the
// signal handler calls it before exiting.
type cleaner struct {
	mu  sync.Mutex
	fns []func()
}

func (c *cleaner) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *cleaner) run() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// buildDaemon compiles cmd/nyquistd from the checkout the driver runs in
// into buildDir and reports how long that took.
func buildDaemon(buildDir string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(buildDir, "nyquistd")
	begin := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nyquistd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/nyquistd: %v\n%s", err, out)
	}
	return bin, time.Since(begin), nil
}

// recovery is the daemon's `recovered` line.
type recovery struct {
	series int
	points int64
	took   time.Duration
}

var recoveredRE = regexp.MustCompile(`^nyquistd: recovered .*: (\d+) series, (\d+) replayed points across \d+ segments \(.*\) in (\S+)$`)

func parseRecovered(line string) (recovery, bool) {
	m := recoveredRE.FindStringSubmatch(line)
	if m == nil {
		return recovery{}, false
	}
	var r recovery
	r.series, _ = strconv.Atoi(m[1])
	r.points, _ = strconv.ParseInt(m[2], 10, 64)
	took, err := time.ParseDuration(m[3])
	if err != nil {
		return recovery{}, false
	}
	r.took = took
	return r, true
}

// daemon is one running nyquistd.
type daemon struct {
	cmd     *exec.Cmd
	spawned time.Time
	// readyAt is when /readyz first answered 200.
	readyAt time.Time

	httpAddr, bulkAddr, debugAddr string
	recovered                     recovery

	lines  chan string   // stdout, line by line; closed at EOF
	exited chan struct{} // closed once Wait returned and stderr is drained

	mu     sync.Mutex
	stderr []string
}

// startDaemon spawns bin on dataDir and returns once it is ready: all
// three listeners announced, the recovered line seen, /readyz at 200. Any
// stderr output or an early exit fails the start. The caller owns kill.
func startDaemon(bin, dataDir string) (*daemon, error) {
	d := &daemon{lines: make(chan string, 16), exited: make(chan struct{})}
	d.cmd = exec.Command(bin, daemonFlags(dataDir)...)
	// If the driver itself is killed outright, the kernel takes the
	// daemon down with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.spawned = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	var pipes sync.WaitGroup
	pipes.Add(2)
	go func() {
		defer pipes.Done()
		defer close(d.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
	}()
	go func() {
		defer pipes.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.stderr = append(d.stderr, sc.Text())
			d.mu.Unlock()
		}
	}()
	go func() {
		// Wait closes the pipes, so the readers must finish first.
		pipes.Wait()
		_ = d.cmd.Wait() // the exit status of a killed child carries nothing
		close(d.exited)
	}()
	err = d.awaitReady(60 * time.Second)
	// Later stdout lines (there are none until shutdown) must not block
	// the pipe reader.
	go func() {
		for range d.lines {
		}
	}()
	if err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// awaitReady consumes the start-up lines and polls /readyz every 5 ms
// from the moment the HTTP address is known.
func (d *daemon) awaitReady(timeout time.Duration) error {
	deadline := time.After(timeout)
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	haveRecovered := false
	lines := d.lines
	for d.readyAt.IsZero() || d.bulkAddr == "" || d.debugAddr == "" || !haveRecovered {
		if err := d.stderrErr(); err != nil {
			return err
		}
		select {
		case line, ok := <-lines:
			if !ok {
				lines = nil // EOF; the exited case reports it
				continue
			}
			switch {
			case strings.HasPrefix(line, "nyquistd: listening on "):
				d.httpAddr = strings.TrimPrefix(line, "nyquistd: listening on ")
			case strings.HasPrefix(line, "nyquistd: bulk lane on "):
				d.bulkAddr = strings.TrimPrefix(line, "nyquistd: bulk lane on ")
			case strings.HasPrefix(line, "nyquistd: pprof on "):
				d.debugAddr = strings.TrimSuffix(strings.TrimPrefix(line, "nyquistd: pprof on "), "/debug/pprof/")
			default:
				if r, ok := parseRecovered(line); ok {
					d.recovered, haveRecovered = r, true
				}
			}
		case <-poll.C:
			if d.httpAddr == "" || !d.readyAt.IsZero() {
				continue
			}
			resp, err := client.Get("http://" + d.httpAddr + "/readyz")
			if err != nil {
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body) // a probe body carries nothing
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyAt = time.Now()
			}
		case <-d.exited:
			if err := d.stderrErr(); err != nil {
				return err
			}
			return fmt.Errorf("nyquistd exited during start-up")
		case <-deadline:
			return fmt.Errorf("nyquistd not ready after %v", timeout)
		}
	}
	return nil
}

// stderrErr reports anything the daemon wrote to stderr. At -log-level
// error nothing benign is written there: a `nyquistd:` line is a fatal
// start-up error and an slog line is a failed listener, a failed
// snapshot or a recovered panic.
func (d *daemon) stderrErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.stderr) == 0 {
		return nil
	}
	return fmt.Errorf("nyquistd stderr: %s", strings.Join(d.stderr, " | "))
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill SIGKILLs the daemon and waits until it has ended. Safe to call
// more than once.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is the only failure, and fine
	<-d.exited
}
