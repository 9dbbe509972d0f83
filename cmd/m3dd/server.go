package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vertical3d/internal/config"
	"vertical3d/internal/experiments"
	"vertical3d/internal/jobstore"
	"vertical3d/internal/journal"
	"vertical3d/internal/multicore"
	"vertical3d/internal/resultcache"
	"vertical3d/internal/sram"
	"vertical3d/internal/sweep"
	"vertical3d/internal/tech"
	"vertical3d/internal/trace"
	"vertical3d/internal/workload"
)

// serverConfig sizes the daemon. The zero value is usable; newServer fills
// the defaults in.
type serverConfig struct {
	// Env is every sweep's base environment. Workers is the default
	// per-sweep worker count (a request's "workers" field overrides it);
	// JournalDir, when non-empty, journals every sweep there and serves
	// cells of previously journaled sweeps through the cache's disk tier.
	// The server fills in each sweep's Context, Cache, CellHook and
	// KeepGoing.
	sweep.Env
	// JobDir, when non-empty, persists the job ledger there as a
	// write-ahead manifest (internal/jobstore): accepted specs and state
	// transitions survive a crash, and a restarted daemon re-enqueues
	// every unfinished job. Empty means memory-only jobs.
	JobDir string
	// CacheBudget bounds the in-memory result cache in bytes (<= 0 means
	// unbounded). The same budget bounds the retained finished-job results:
	// when they exceed it, the oldest finished jobs are evicted early.
	CacheBudget int64
	// MaxSweeps bounds the sweeps simulating concurrently; further accepted
	// sweeps queue. Default 2.
	MaxSweeps int
	// QueueDepth bounds the accepted-but-not-running sweeps; a POST beyond
	// it is shed with 429 + Retry-After. Default 64.
	QueueDepth int
	// KeepJobs bounds the finished sweeps retained for GET; the oldest
	// finished jobs beyond it are evicted. Default 64.
	KeepJobs int
	// EventCap bounds each job's retained SSE event log: a subscriber that
	// falls more than EventCap events behind is handed a "lost" marker and
	// resumes from the oldest retained event. Default 256.
	EventCap int
	// Quick sizes sweeps with the unit-test sizing instead of the harness
	// defaults (a request's explicit sizing always wins).
	Quick bool
	// Logf receives the daemon's progress lines; nil discards.
	Logf func(format string, args ...any)

	// faultHook, when non-nil, runs at the start of every simulated cell
	// after its progress event: the fault-injection seam of the tests
	// (guard/faultinject). The daemon itself leaves it nil.
	faultHook func(bench, design string)
}

// admissionStats counts the admission-control decisions for /statsz.
type admissionStats struct {
	// Accepted counts admitted sweeps (including restored ones); Shed the
	// POSTs refused with 429 over a full queue; DeadlineRejected the POSTs
	// refused with 400 over an already-expired deadline; ExpiredInQueue
	// the admitted jobs whose deadline passed before a slot freed up;
	// Restored the unfinished jobs re-enqueued from the manifest at boot.
	Accepted         int `json:"accepted"`
	Shed             int `json:"shed_429"`
	DeadlineRejected int `json:"deadline_rejected"`
	ExpiredInQueue   int `json:"expired_in_queue"`
	Restored         int `json:"restored"`
}

// server is the m3dd daemon: a process-wide result cache in front of the
// sweep library, a write-ahead job manifest under the ledger, jobs that
// run on it, and the HTTP surface over all of it.
type server struct {
	cfg   serverConfig
	ctx   context.Context // bounds every sweep; cancelled on shutdown
	cache *resultcache.Cache
	store *jobstore.Store // nil = memory-only jobs
	start time.Time

	draining   atomic.Bool
	storeNoted atomic.Bool // manifest append failure reported once, not per write
	wg         sync.WaitGroup
	kick       chan struct{} // buffered 1; wakes the dispatcher

	mu          sync.Mutex
	stopped     bool // dispatcher has failed the queue; no more dispatch
	seq         int
	jobs        map[string]*job
	order       []string // job ids in creation order (eviction scan)
	queue       []*job   // admitted, waiting for a sweep slot
	running     int
	resultBytes int64 // retained finished-result bytes, against CacheBudget
	admission   admissionStats

	// healthMu guards the degradation log separately from mu: events are
	// appended from paths that already hold mu (always mu before healthMu,
	// never the reverse).
	healthMu sync.Mutex
	health   []experiments.DegradationEvent
}

// newServer builds a server whose sweeps are bounded by ctx: it opens (or
// degrades past) the job manifest, restores the persisted ledger,
// re-enqueues every unfinished job and starts the dispatcher.
func newServer(ctx context.Context, cfg serverConfig) *server {
	if cfg.MaxSweeps <= 0 {
		cfg.MaxSweeps = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.KeepJobs <= 0 {
		cfg.KeepJobs = 64
	}
	if cfg.EventCap <= 0 {
		cfg.EventCap = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &server{
		cfg:   cfg,
		ctx:   ctx,
		cache: resultcache.New(cfg.CacheBudget),
		start: time.Now(),
		kick:  make(chan struct{}, 1),
		jobs:  map[string]*job{},
	}
	if cfg.JournalDir != "" {
		s.cache.SetDiskDir(cfg.JournalDir)
	}
	if cfg.JobDir != "" {
		st, err := jobstore.Open(cfg.JobDir)
		if err != nil {
			// Never refuse to serve over a bookkeeping failure: run with
			// memory-only jobs and say so on /healthz.
			s.note("jobstore", "job manifest unusable, running with memory-only jobs", err)
			s.cfg.Logf("m3dd: job manifest %s unusable, memory-only jobs: %v", cfg.JobDir, err)
		} else {
			s.store = st
			s.restore()
		}
	}
	go s.dispatch()
	return s
}

// restore replays the manifest into the ledger: finished jobs come back as
// restored terminal entries (their per-cell results live in the journal,
// not the manifest), unfinished ones re-enter the queue exactly as if just
// accepted — their cells are then served from the journal/result cache, so
// a kill -9 costs at most the in-flight cells.
func (s *server) restore() {
	persisted := s.store.Jobs()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq = s.store.MaxSeq()
	for _, pj := range persisted {
		if pj.State == jobstore.StateEvicted {
			continue
		}
		var req sweepRequest
		if err := json.Unmarshal(pj.Spec, &req); err == nil {
			if verr := req.validate(); verr != nil {
				err = verr
			}
			if err != nil {
				// A spec this daemon can no longer run (renamed benchmark,
				// older wire format) fails terminally instead of crash-looping
				// the queue.
				_ = s.store.Transition(pj.ID, jobstore.StateFailed, "restored spec no longer valid: "+err.Error())
				continue
			}
		} else {
			_ = s.store.Transition(pj.ID, jobstore.StateFailed, "restored spec undecodable: "+err.Error())
			continue
		}
		j := s.newJobLocked(pj.ID, req)
		j.restored = true
		j.deadline = pj.Deadline
		j.created = pj.Created
		switch pj.State {
		case jobstore.StateDone, jobstore.StateFailed:
			j.mu.Lock()
			j.state = pj.State
			j.err = pj.Error
			j.finished = pj.Updated
			j.emitLocked(jobEvent{Type: pj.State, State: pj.State, Error: pj.Error})
			j.mu.Unlock()
		default:
			// accepted | queued | running | interrupted: back in the queue.
			if pj.State == jobstore.StateInterrupted {
				s.cfg.Logf("m3dd: %s %s interrupted by previous shutdown, resuming", j.id, req.Experiment)
			}
			_ = s.store.Transition(j.id, jobstore.StateQueued, "")
			s.wg.Add(1)
			s.queue = append(s.queue, j)
			s.admission.Restored++
			s.admission.Accepted++
		}
	}
	if s.admission.Restored > 0 {
		s.cfg.Logf("m3dd: restored %d unfinished job(s) from the manifest", s.admission.Restored)
	}
	s.kickLocked()
}

// newJobLocked builds a ledger entry (initial state queued) and registers
// it. Callers hold s.mu and have already claimed the id.
func (s *server) newJobLocked(id string, req sweepRequest) *job {
	j := &job{
		id:       id,
		req:      req,
		identity: s.identityFor(req),
		state:    jobstore.StateQueued,
		created:  time.Now(),
		eventCap: s.cfg.EventCap,
		notify:   make(chan struct{}),
	}
	j.events = append(j.events, jobEvent{Type: "state", State: jobstore.StateQueued})
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// identityFor computes the journal identity the request's sweep will run
// under — the content address the admission layer probes with
// resultcache.KnownCells to prefer cache-hit-serviceable jobs under load.
func (s *server) identityFor(req sweepRequest) journal.Identity {
	switch req.Experiment {
	case "fig9":
		return experiments.MCIdentity(s.mcOptions(context.Background(), req, nil), "fig9")
	case "table3", "table4", "table5":
		return experiments.StrategyTableIdentity(strategyFor(req.Experiment))
	case "table6":
		return experiments.Table6Identity()
	default: // fig6, lpstudy
		return s.runOptions(context.Background(), req, nil).Identity(req.Experiment)
	}
}

// strategyFor maps a table experiment name onto its partitioning strategy.
func strategyFor(experiment string) sram.Strategy {
	return map[string]sram.Strategy{
		"table3": sram.BitPart, "table4": sram.WordPart, "table5": sram.PortPart,
	}[experiment]
}

// note records a serving-layer degradation event for /healthz and /statsz.
// Safe to call with or without s.mu held (the log has its own mutex).
func (s *server) note(layer, action string, cause error) {
	ev := experiments.DegradationEvent{Layer: layer, Action: action}
	if cause != nil {
		ev.Cause = cause.Error()
	}
	s.appendHealth([]experiments.DegradationEvent{ev})
}

// appendHealth appends degradation events, bounding the retained log.
func (s *server) appendHealth(events []experiments.DegradationEvent) {
	s.healthMu.Lock()
	s.health = append(s.health, events...)
	if n := len(s.health); n > 200 {
		s.health = append([]experiments.DegradationEvent(nil), s.health[n-200:]...)
	}
	s.healthMu.Unlock()
}

// healthSnapshot copies the retained degradation log.
func (s *server) healthSnapshot() []experiments.DegradationEvent {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	return append([]experiments.DegradationEvent(nil), s.health...)
}

// transition appends a job state change to the manifest, reporting the
// first append failure as a degradation event (the store itself degrades
// to memory-only after the first failure, so later calls are cheap no-ops).
// Safe with or without s.mu held.
func (s *server) transition(id, state, errMsg string) {
	if s.store == nil {
		return
	}
	if err := s.store.Transition(id, state, errMsg); err != nil {
		s.noteStoreFailure(err)
	}
}

// noteStoreFailure records the manifest's downgrade to memory-only jobs,
// once. Safe with or without s.mu held.
func (s *server) noteStoreFailure(err error) {
	if s.storeNoted.Swap(true) {
		return
	}
	s.note("jobstore", "job manifest append failed, continuing with memory-only jobs", err)
	s.cfg.Logf("m3dd: job manifest degraded to memory-only: %v", err)
}

// drain flips the health check to 503; POST /sweeps starts refusing.
func (s *server) drain() { s.draining.Store(true) }

// wait blocks until every accepted sweep has finished.
func (s *server) wait() { s.wg.Wait() }

// kickLocked wakes the dispatcher (callers hold s.mu; the buffered channel
// makes the wakeup lossless without blocking under the lock).
func (s *server) kickLocked() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// dispatch is the daemon's single scheduling loop: it fills free sweep
// slots from the queue, periodically expires queued jobs whose deadline
// passed while they waited, and, on shutdown, fails whatever never got a
// slot.
func (s *server) dispatch() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.kick:
			s.dispatchReady()
		case <-tick.C:
			s.mu.Lock()
			if !s.stopped {
				s.expireQueuedLocked(time.Now())
			}
			s.mu.Unlock()
		case <-s.ctx.Done():
			s.stopQueued()
			return
		}
	}
}

// expireQueuedLocked fails queued jobs whose deadline has passed: the
// client has given up, so the job should report that now rather than burn
// a future slot. Called with s.mu held.
func (s *server) expireQueuedLocked(now time.Time) {
	kept := s.queue[:0]
	for _, j := range s.queue {
		if !j.deadline.IsZero() && now.After(j.deadline) {
			s.admission.ExpiredInQueue++
			s.finishJobLocked(j, nil, fmt.Errorf("m3dd: deadline %s expired before the sweep started", j.deadline.Format(time.RFC3339)), jobstore.StateFailed)
			continue
		}
		kept = append(kept, j)
	}
	s.queue = kept
}

// dispatchReady starts queued jobs while slots are free, expiring
// dead-on-arrival deadlines and preferring cache-hit-serviceable jobs.
func (s *server) dispatchReady() {
	for {
		s.mu.Lock()
		if s.stopped || s.running >= s.cfg.MaxSweeps {
			s.mu.Unlock()
			return
		}
		j := s.nextLocked()
		if j == nil {
			s.mu.Unlock()
			return
		}
		s.running++
		s.mu.Unlock()
		go s.run(j)
	}
}

// nextLocked picks the next queued job. Jobs whose deadline has already
// passed are failed in place (no point burning a slot on an abandoned
// request). Under load-shed pressure the pick prefers the first job whose
// cells the cache can already serve (KnownCells > 0): those jobs drain the
// queue at cache speed, freeing slots for the ones that must simulate.
// Called with s.mu held.
func (s *server) nextLocked() *job {
	s.expireQueuedLocked(time.Now())
	if len(s.queue) == 0 {
		return nil
	}
	pick := 0
	if len(s.queue) > 1 {
		for i, j := range s.queue {
			if s.cache.KnownCells(j.identity) > 0 {
				pick = i
				break
			}
		}
	}
	j := s.queue[pick]
	s.queue = append(s.queue[:pick], s.queue[pick+1:]...)
	return j
}

// stopQueued fails every still-queued job when the daemon shuts down. The
// manifest records them as interrupted — a non-terminal state — so the
// next boot against the same -job-dir resumes them instead of forgetting
// them.
func (s *server) stopQueued() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	for _, j := range s.queue {
		s.finishJobLocked(j, nil, fmt.Errorf("m3dd: shutting down before the sweep started"), jobstore.StateInterrupted)
	}
	s.queue = nil
}

// finishJobLocked settles a job that never ran (queue expiry, shutdown):
// terminal in memory, manifestState on disk, wg released. Called with s.mu
// held.
func (s *server) finishJobLocked(j *job, view *sweepResultView, err error, manifestState string) {
	j.finish(view, err)
	s.transition(j.id, manifestState, err.Error())
	s.wg.Done()
}

// run executes one dispatched sweep end to end: derive its context (the
// daemon's, tightened by the job deadline), simulate through the
// process-wide cache, classify the outcome, publish the result and free
// the slot.
func (s *server) run(j *job) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.kickLocked()
		s.mu.Unlock()
		s.wg.Done()
	}()

	j.setState(jobstore.StateRunning)
	s.transition(j.id, jobstore.StateRunning, "")
	s.cfg.Logf("m3dd: %s %s running", j.id, j.req.Experiment)

	jctx := s.ctx
	if !j.deadline.IsZero() {
		var cancel context.CancelFunc
		jctx, cancel = context.WithDeadline(s.ctx, j.deadline)
		defer cancel()
	}

	view, err := s.execute(jctx, j)
	if err == nil && jctx.Err() != nil {
		// A drain or deadline can cancel dispatch mid-sweep; a partially
		// dispatched sweep must not be published as a completed one.
		err = fmt.Errorf("m3dd: sweep interrupted: %w", jctx.Err())
	}

	// Classify for the manifest: a daemon-wide shutdown is an interruption
	// (the next boot resumes the job, its completed cells served from the
	// journal); a failure with the daemon still up — including a blown
	// per-request deadline — is terminal.
	manifestState := jobstore.StateDone
	msg := ""
	if err != nil {
		msg = err.Error()
		if s.ctx.Err() != nil {
			manifestState = jobstore.StateInterrupted
		} else {
			manifestState = jobstore.StateFailed
		}
	}

	j.finish(view, err)
	s.transition(j.id, manifestState, msg)
	if err != nil {
		s.cfg.Logf("m3dd: %s failed: %v", j.id, err)
	} else {
		s.cfg.Logf("m3dd: %s done (%d cell(s) simulated)", j.id, j.simulated.Load())
	}

	if view != nil {
		s.appendHealth(view.Health.Events)
	}
	s.mu.Lock()
	if view != nil {
		s.resultBytes += j.resultSize()
	}
	s.evictLocked()
	s.mu.Unlock()
}

// evictLocked drops the oldest finished jobs beyond KeepJobs — and beyond
// the CacheBudget byte budget over retained results — so a long-lived
// daemon's memory stays bounded by its budget, not its uptime. Queued and
// running jobs are never evicted, and the newest finished job is always
// retained. Every evicted job is recorded in the manifest (compaction then
// forgets it) and emits a final "evicted" event so live SSE subscribers
// terminate instead of hanging on a job that no longer exists.
func (s *server) evictLocked() {
	excess := len(s.order) - s.cfg.KeepJobs
	overBudget := s.cfg.CacheBudget > 0 && s.resultBytes > s.cfg.CacheBudget
	if excess <= 0 && !overBudget {
		return
	}
	// The newest terminal job is sacred: a client that just watched its
	// sweep finish must be able to GET the result.
	newestTerminal := ""
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.jobs[s.order[i]].terminal() {
			newestTerminal = s.order[i]
			break
		}
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		overBudget = s.cfg.CacheBudget > 0 && s.resultBytes > s.cfg.CacheBudget
		if (excess > 0 || overBudget) && id != newestTerminal && j.terminal() {
			delete(s.jobs, id)
			s.resultBytes -= j.resultSize()
			s.transition(id, jobstore.StateEvicted, "")
			j.evict()
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// cellHook is the per-cell progress seam: it fires only for cells that
// reach the simulator, so its count is exactly the sweep's simulated-cell
// count (cache, coalesced and journal serves never fire it).
func (s *server) cellHook(j *job) func(bench, design string) {
	return func(bench, design string) {
		j.simulated.Add(1)
		j.mu.Lock()
		j.emitLocked(jobEvent{Type: "cell", Cell: bench + "/" + design})
		j.mu.Unlock()
		if s.cfg.faultHook != nil {
			s.cfg.faultHook(bench, design)
		}
	}
}

// env builds a request's sweep environment from the server's base Env.
// A nil job builds identity-only options (no hook) for the admission
// layer.
func (s *server) env(ctx context.Context, req sweepRequest, j *job) sweep.Env {
	env := s.cfg.Env
	if req.Workers != 0 {
		env.Workers = req.Workers
	}
	env.KeepGoing = req.KeepGoing
	env.Context = ctx
	env.Cache = s.cache
	if j != nil {
		env.CellHook = s.cellHook(j)
	}
	return env
}

// runOptions builds the single-core sweep options for a request (see env).
func (s *server) runOptions(ctx context.Context, req sweepRequest, j *job) experiments.RunOptions {
	opt := experiments.DefaultRunOptions()
	if s.cfg.Quick {
		opt = experiments.QuickRunOptions()
	}
	if req.Warmup > 0 {
		opt.Warmup = req.Warmup
	}
	if req.Measure > 0 {
		opt.Measure = req.Measure
	}
	if req.Seed != nil {
		opt.Seed = *req.Seed
	}
	opt.Sample = req.Sample
	opt.Env = s.env(ctx, req, j)
	return opt
}

// mcOptions builds the fig9 sweep options for a request (see env).
func (s *server) mcOptions(ctx context.Context, req sweepRequest, j *job) multicore.Options {
	opt := multicore.DefaultOptions()
	if s.cfg.Quick {
		opt = multicore.QuickOptions()
	}
	if req.Instrs > 0 {
		opt.TotalInstrs = req.Instrs
	}
	if req.Warmup > 0 {
		opt.WarmupPerCore = req.Warmup
	}
	if req.Phases > 0 {
		opt.Phases = req.Phases
	}
	if req.Seed != nil {
		opt.Seed = *req.Seed
	}
	opt.Sample = req.Sample
	opt.Env = s.env(ctx, req, j)
	return opt
}

// profiles resolves a request's benchmark list, defaulting to def.
func profiles(names []string, def []trace.Profile) ([]trace.Profile, error) {
	if len(names) == 0 {
		return def, nil
	}
	out := make([]trace.Profile, len(names))
	for i, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// execute dispatches to the sweep library under ctx (the daemon context
// tightened by the job's deadline).
func (s *server) execute(ctx context.Context, j *job) (*sweepResultView, error) {
	switch j.req.Experiment {
	case "fig6":
		suite, err := config.Derive(tech.N22())
		if err != nil {
			return nil, err
		}
		profs, err := profiles(j.req.Benchmarks, workload.SPEC2006())
		if err != nil {
			return nil, err
		}
		f, err := experiments.Fig6With(suite, profs, s.runOptions(ctx, j.req, j))
		if err != nil {
			return nil, err
		}
		return matrixView("fig6", &f.Matrix), nil
	case "fig9":
		suite, err := config.Derive(tech.N22())
		if err != nil {
			return nil, err
		}
		profs, err := profiles(j.req.Benchmarks, workload.Parallel())
		if err != nil {
			return nil, err
		}
		f, err := experiments.Fig9With(suite, profs, s.mcOptions(ctx, j.req, j))
		if err != nil {
			return nil, err
		}
		return matrixView("fig9", &f.Matrix), nil
	case "lpstudy":
		names := j.req.Benchmarks
		if len(names) == 0 {
			names = lpDefaultBenchmarks
		}
		r, err := experiments.LPStudy(names, s.runOptions(ctx, j.req, j))
		if err != nil {
			return nil, err
		}
		return lpView(r), nil
	case "table3", "table4", "table5":
		rows, h, err := experiments.StrategyTable(s.env(ctx, j.req, j), strategyFor(j.req.Experiment))
		if err != nil {
			return nil, err
		}
		return &sweepResultView{Experiment: j.req.Experiment, Rows: rows, Health: h}, nil
	case "table6":
		m3d, tsv, h, err := experiments.Table6(s.env(ctx, j.req, j))
		if err != nil {
			return nil, err
		}
		return &sweepResultView{Experiment: "table6", M3DChoices: m3d, TSVChoices: tsv, Health: h}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q", j.req.Experiment)
}
