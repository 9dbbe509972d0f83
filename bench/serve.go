package main

// The serve workload drives a real m3dd process over HTTP. The load
// generator is this process: two client goroutines, one connection each,
// each a closed loop that waits for its sweep before sending the next —
// the way scripts drive the daemon. Every operation is
//
//	POST /sweeps → SSE /sweeps/{id}/events until "done" → GET /sweeps/{id}/cells
//
// through four phases: cold (fresh specs, every cell simulated and
// journaled), hit (re-POSTs served from the memory cache), restarts
// (SIGTERM, then a daemon over the same journal and the job manifest the
// hit phase left — each start timed as set-up), and disk (re-POSTs served
// from the journal).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/workload"
)

// cellsPerSpec is the cell count of one serve spec: one benchmark on every
// single-core design.
var cellsPerSpec = len(config.SingleCoreDesigns())

// serveSize is the serve workload's operation counts.
type serveSize struct {
	rounds    int // cold rounds, each timed on its own
	perRound  int // fresh specs per client per cold round
	hitRounds int // re-POSTs of each cold spec per client
	restarts  int // daemon restarts, each timed as set-up
}

const serveClients = 2

// serveSizeFor scales the cold phase to the run's seconds, one round per
// 7 s: at 30 s a pass simulates 4 rounds of 42 specs (1,008 cells), serves
// 5,040 hits, replays ~1,000 jobs per restart and re-POSTs every cold spec
// once from the journal. A standard round sends every SPEC profile once
// from each client, so every round and every seed simulates the same
// profile mix. The counts never depend on measured speed, so every commit
// replays the same manifest.
func serveSizeFor(size string, secs time.Duration) (serveSize, error) {
	switch size {
	case "tiny":
		return serveSize{rounds: 1, perRound: 2, hitRounds: 1, restarts: 1}, nil
	case "standard":
		return serveSize{rounds: max(1, int(secs.Seconds()/7)), perRound: len(workload.SPEC2006()), hitRounds: 5, restarts: 15}, nil
	}
	return serveSize{}, fmt.Errorf("unknown size %q (want standard or tiny)", size)
}

// serveSpec is one POST /sweeps body.
type serveSpec struct {
	Experiment string   `json:"experiment"`
	Benchmarks []string `json:"benchmarks"`
	Seed       int64    `json:"seed"`
	Workers    int      `json:"workers"`
}

// serveSpecs generates the cold specs from the seed, indexed [round][client]:
// in each round a client sends the first perRound profiles of its own
// seeded permutation of the SPEC suite, and simulation seeds are distinct,
// so no two specs share a cell.
func serveSpecs(seed int64, size serveSize) [][][]serveSpec {
	rng := rand.New(rand.NewSource(seed))
	suite := workload.SPEC2006()
	next := rng.Int63n(1 << 40)
	out := make([][][]serveSpec, size.rounds)
	for r := range out {
		out[r] = make([][]serveSpec, serveClients)
		for i := range out[r] {
			for _, k := range rng.Perm(len(suite))[:size.perRound] {
				out[r][i] = append(out[r][i], serveSpec{
					Experiment: "fig6", Benchmarks: []string{suite[k].Name}, Seed: next, Workers: 1,
				})
				next++
			}
		}
	}
	return out
}

// daemon is one m3dd process.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration // exec to the first /healthz 200
	log   *os.File

	exited  chan struct{} // closed once the process has been reaped
	waitErr error
}

// serveEnv is the state a serve run keeps across daemon incarnations.
type serveEnv struct {
	c             *runConfig
	addr          string
	journal, jobs string
	manifest      string // copy of the job manifest as the hit phase left it
	incarnation   int
	health        *http.Client
	peakMB        float64
	running       []*daemon
}

// freePort asks the kernel for an unused loopback port; every daemon
// incarnation of the run listens on it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start launches a daemon over the run's journal and job manifest and
// waits until it answers /healthz.
func (e *serveEnv) start() (*daemon, error) {
	e.incarnation++
	logf, err := os.Create(filepath.Join(e.c.work, fmt.Sprintf("m3dd-%d.log", e.incarnation)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.c.m3dd, "-addr", e.addr, "-quick", "-max-sweeps", "2",
		"-journal-dir", e.journal, "-job-dir", e.jobs)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", cliProcs))
	cmd.SysProcAttr = orphanGuard()
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, base: "http://" + e.addr, log: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	e.running = append(e.running, d)
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	for {
		resp, err := e.health.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("m3dd exited during start-up: %v (log %s)", d.waitErr, logf.Name())
		default:
		}
		if time.Since(start) > 60*time.Second {
			return nil, fmt.Errorf("m3dd not healthy after 60s (log %s)", logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain and records the peak RSS.
func (e *serveEnv) stop(d *daemon) error {
	defer d.log.Close()
	for i, r := range e.running {
		if r == d {
			e.running = append(e.running[:i], e.running[i+1:]...)
			break
		}
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("m3dd did not drain within 60s (log %s)", d.log.Name())
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		e.peakMB = max(e.peakMB, float64(ru.Maxrss)*1024/1e6)
	}
	// A drained daemon exits 130 (interrupted), which is its success code.
	var ee *exec.ExitError
	if err := d.waitErr; err != nil && !(errors.As(err, &ee) && ee.ExitCode() == 130) {
		return fmt.Errorf("m3dd exit: %w (log %s)", err, d.log.Name())
	}
	return nil
}

// killAll stops any daemon still running when the run bails out.
func (e *serveEnv) killAll() {
	for _, d := range e.running {
		_ = d.cmd.Process.Kill()
		<-d.exited
		d.log.Close()
	}
	e.running = nil
}

// cpuSeconds reads a process's user+sys time from /proc.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return (ut + st) / clkTck, nil
}

// client is one closed-loop caller with a single connection.
type client struct {
	http *http.Client
}

func newClient() *client {
	return &client{http: &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// opResult is one POST → done → /cells round trip.
type opResult struct {
	spec      serveSpec
	body      []byte // the /cells body
	simulated int    // "cell" events: cells that reached the simulator
	// Client-side times: request sent, 202 received, "running" and "done"
	// events received, /cells body received.
	sent, accepted, running, done, end time.Time
	err                                error
}

func (o opResult) latency() time.Duration { return o.end.Sub(o.sent) }

// op runs one sweep end to end.
func (cl *client) op(base string, spec serveSpec) (o opResult) {
	o.spec = spec
	body, _ := json.Marshal(spec)
	o.sent = time.Now()
	resp, err := cl.http.Post(base+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	var acc struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	o.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		o.err = fmt.Errorf("POST /sweeps: status %d (%v)", resp.StatusCode, err)
		return o
	}

	resp, err = cl.http.Get(base + "/sweeps/" + acc.ID + "/events")
	if err != nil {
		o.err = err
		return o
	}
	err = readEvents(resp.Body, &o)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		o.err = fmt.Errorf("%s events: %w", acc.ID, err)
		return o
	}

	resp, err = cl.http.Get(base + "/sweeps/" + acc.ID + "/cells")
	if err != nil {
		o.err = err
		return o
	}
	o.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	if err != nil {
		o.err = fmt.Errorf("%s cells: %w", acc.ID, err)
	}
	return o
}

// readEvents follows a job's SSE stream to its terminal event, timing the
// "running" and "done" events and counting simulated cells.
func readEvents(r io.Reader, o *opResult) error {
	sc := bufio.NewScanner(r)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev struct {
				State, Error string
			}
			_ = json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev)
			switch event {
			case "state":
				if ev.State == "running" && o.running.IsZero() {
					o.running = time.Now()
				}
			case "cell":
				o.simulated++
			case "done":
				o.done = time.Now()
				if o.running.IsZero() {
					o.running = o.done
				}
				return nil
			case "failed", "evicted":
				return fmt.Errorf("job %s: %s", event, ev.Error)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended before the job finished")
}

// phase runs one closed-loop phase: client i sends specs[i] in order, and
// returns every result in the same layout.
func phase(clients []*client, base string, specs [][]serveSpec) ([][]opResult, time.Duration) {
	out := make([][]opResult, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			for _, s := range specs[i] {
				out[i] = append(out[i], cl.op(base, s))
			}
		}(i, cl)
	}
	wg.Wait()
	return out, time.Since(start)
}

// statsz is the part of GET /statsz the oracles reconcile.
type statsz struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		DiskHits  uint64 `json:"disk_hits"`
		Coalesced uint64 `json:"coalesced"`
		Computed  uint64 `json:"computed"`
		Bytes     int64  `json:"bytes"`
	} `json:"cache"`
	JobStoreStats struct {
		Records int `json:"records"`
	} `json:"jobstore_stats"`
}

func (e *serveEnv) scrape(d *daemon) (statsz, error) {
	var s statsz
	resp, err := e.health.Get(d.base + "/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// servePass is everything one pass of the phases measured.
type servePass struct {
	cold, hit, disk [][]opResult
	roundRates      []float64 // cells per second of each cold round
	coldCPU         float64   // daemon CPU seconds over the cold phase
	setups          []time.Duration
	afterCold       statsz
	afterHit        statsz
	afterDisk       statsz
}

// servePhases runs cold, hit, the restarts and disk against a fresh
// journal and job manifest, checking every oracle on the way.
func servePhases(c *runConfig, res *result, size serveSize) (*servePass, *serveEnv, error) {
	if c.m3dd == "" {
		return nil, nil, fmt.Errorf("the serve workload needs -m3dd (bench/run.sh builds and passes it)")
	}
	addr, err := freePort()
	if err != nil {
		return nil, nil, err
	}
	e := &serveEnv{
		c: c, addr: addr,
		journal: filepath.Join(c.work, "journal"), jobs: filepath.Join(c.work, "jobs"),
		health: &http.Client{Timeout: 5 * time.Second},
	}
	rounds := serveSpecs(c.seed, size)
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient()
	}
	p := &servePass{cold: make([][]opResult, serveClients)}
	d, err := e.start()
	if err != nil {
		return nil, e, err
	}

	// Cold rounds run back to back; each ends when both clients have their
	// cells, so a round's rate covers the same profile mix on every commit.
	cpu0, err := cpuSeconds(d.cmd.Process.Pid)
	if err != nil {
		return nil, e, err
	}
	specs := make([][]serveSpec, serveClients)
	for _, round := range rounds {
		ops, wall := phase(clients, d.base, round)
		cells := 0
		for i := range ops {
			p.cold[i] = append(p.cold[i], ops[i]...)
			specs[i] = append(specs[i], round[i]...)
			cells += len(ops[i]) * cellsPerSpec
		}
		p.roundRates = append(p.roundRates, float64(cells)/wall.Seconds())
	}
	cpu1, err := cpuSeconds(d.cmd.Process.Pid)
	if err != nil {
		return nil, e, err
	}
	p.coldCPU = cpu1 - cpu0
	if p.afterCold, err = e.scrape(d); err != nil {
		return nil, e, err
	}

	hitSpecs := make([][]serveSpec, serveClients)
	for i := range specs {
		for r := 0; r < size.hitRounds; r++ {
			hitSpecs[i] = append(hitSpecs[i], specs[i]...)
		}
	}
	p.hit, _ = phase(clients, d.base, hitSpecs)
	if p.afterHit, err = e.scrape(d); err != nil {
		return nil, e, err
	}

	// Every restart replays the manifest as the hit phase left it: a
	// restart compacts the manifest, so without the restore only the
	// first would replay every job.
	if err := e.stop(d); err != nil {
		return nil, e, err
	}
	e.manifest = e.jobs + "-after-hit"
	if err := copyDir(e.jobs, e.manifest); err != nil {
		return nil, e, err
	}
	for r := 0; r < size.restarts; r++ {
		if r > 0 {
			if err := e.stop(d); err != nil {
				return nil, e, err
			}
			if err := os.RemoveAll(e.jobs); err != nil {
				return nil, e, err
			}
			if err := copyDir(e.manifest, e.jobs); err != nil {
				return nil, e, err
			}
		}
		if d, err = e.start(); err != nil {
			return nil, e, err
		}
		p.setups = append(p.setups, d.setup)
	}

	p.disk, _ = phase(clients, d.base, specs)
	if p.afterDisk, err = e.scrape(d); err != nil {
		return nil, e, err
	}
	if err := e.stop(d); err != nil {
		return nil, e, err
	}
	checkServe(res, p)
	return p, e, nil
}

// phaseOps names a phase's ops, in the order the phases ran.
type phaseOps struct {
	name string
	ops  [][]opResult
}

func (p *servePass) phases() []phaseOps {
	return []phaseOps{{"cold", p.cold}, {"hit", p.hit}, {"disk", p.disk}}
}

// checkServe applies the serve oracles: every op succeeded; a spec's
// /cells body is byte-identical in all three phases; only cold ops
// simulate, each every cell; and /statsz reconciles with the op counts.
func checkServe(res *result, p *servePass) {
	coldBody := map[int64][]byte{}
	count := map[string]uint64{}
	for _, ph := range p.phases() {
		for _, list := range ph.ops {
			for _, o := range list {
				res.attempted++
				count[ph.name]++
				switch {
				case o.err != nil:
					res.failed++
					res.problem("%s op failed: %v", ph.name, o.err)
				case ph.name == "cold":
					coldBody[o.spec.Seed] = o.body
					if o.simulated != cellsPerSpec {
						res.problem("cold op %v simulated %d cells, want %d", o.spec, o.simulated, cellsPerSpec)
					}
					var v struct {
						State string
						Cells []struct{ Error string }
					}
					if err := json.Unmarshal(o.body, &v); err != nil || v.State != "done" || len(v.Cells) != cellsPerSpec {
						res.problem("cold op %v: /cells is not a done sweep of %d cells", o.spec, cellsPerSpec)
					}
					for _, cell := range v.Cells {
						if cell.Error != "" {
							res.problem("cold op %v: cell failed: %s", o.spec, cell.Error)
						}
					}
				default:
					if o.simulated != 0 {
						res.problem("%s op %v simulated %d cells, want 0", ph.name, o.spec, o.simulated)
					}
					if !bytes.Equal(o.body, coldBody[o.spec.Seed]) {
						res.problem("%s op %v: /cells differs from the cold phase's", ph.name, o.spec)
					}
				}
			}
		}
	}
	n := uint64(cellsPerSpec)
	if s := p.afterCold.Cache; s.Computed != count["cold"]*n || s.Coalesced != 0 {
		res.problem("statsz after cold: computed %d coalesced %d, want %d and 0", s.Computed, s.Coalesced, count["cold"]*n)
	}
	if got := p.afterHit.Cache.Hits - p.afterCold.Cache.Hits; got != count["hit"]*n || p.afterHit.Cache.Computed != p.afterCold.Cache.Computed {
		res.problem("statsz hit phase: %d hits and %d computed, want %d and 0", got, p.afterHit.Cache.Computed-p.afterCold.Cache.Computed, count["hit"]*n)
	}
	if s := p.afterDisk.Cache; s.DiskHits != count["disk"]*n || s.Computed != 0 {
		res.problem("statsz after restart: disk_hits %d computed %d, want %d and 0", s.DiskHits, s.Computed, count["disk"]*n)
	}
}

// runServe measures the serve workload's end-to-end metrics.
func runServe(c *runConfig, res *result) error {
	size, err := serveSizeFor(c.size, c.seconds)
	if err != nil {
		return err
	}
	p, e, err := servePhases(c, res, size)
	if e != nil {
		defer e.killAll()
	}
	if err != nil {
		return err
	}
	res.reps = 1
	cold := opLatencies(p.cold)
	for _, x := range cold {
		res.sample("sweep_s", x)
	}
	for _, s := range p.setups {
		res.sample("setup_s", s.Seconds())
	}
	if len(cold) > 0 {
		res.set("cpu_s", p.coldCPU/float64(len(cold)))
	}
	res.set("peak_rss_mb", e.peakMB)
	for _, r := range p.roundRates {
		res.sample("cells_per_s", r)
	}
	return nil
}

// opLatencies lists a phase's successful op latencies in seconds.
func opLatencies(ph [][]opResult) []float64 {
	var xs []float64
	for _, ops := range ph {
		for _, o := range ops {
			if o.err == nil {
				xs = append(xs, o.latency().Seconds())
			}
		}
	}
	return xs
}
