package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/linalg"
	"execmodels/internal/obs"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the job-level worker-pool size (default: GOMAXPROCS).
	Workers int
	// Sched is the balancing policy of each job's Fock builds
	// (core.WallSchedulerNames: stealing, semimatching,
	// persistence-feedback, ...). Empty selects "stealing" when
	// FockWorkers > 1 and a serial build otherwise. Feedback policies keep
	// per-job measured-cost state, so each job gets a private builder.
	Sched string
	// FockWorkers is the intra-job Fock-build parallelism (default 1:
	// with many concurrent jobs, job-level parallelism wins).
	FockWorkers int
	// DynBlock is the NXTVAL fetch block of the "dynamic" policy.
	DynBlock int
	// Seed drives stealing victim selection inside Fock builds.
	Seed int64
	// SpoolDir is the checkpoint/restart spool (required).
	SpoolDir string
	// MaxDepth / MaxQueuedFlops are the admission bounds (defaults 512
	// jobs and 1e9 NBF⁴ units; negative disables a bound).
	MaxDepth       int
	MaxQueuedFlops float64
	// TenantWeights maps tenant names to fair-queue weights (default 1).
	TenantWeights map[string]float64
	// DefaultMaxIter caps SCF iterations for specs that leave MaxIter 0
	// (default 100).
	DefaultMaxIter int
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.FockWorkers < 1 {
		c.FockWorkers = 1
	}
	if c.Sched == "" && c.FockWorkers > 1 {
		c.Sched = "stealing"
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 512
	}
	if c.MaxQueuedFlops == 0 {
		c.MaxQueuedFlops = 1e9
	}
	if c.DefaultMaxIter < 1 {
		c.DefaultMaxIter = 100
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Server is the multi-tenant SCF job server: admission control in front
// of a weighted fair queue, a bounded worker pool running wall-clock
// Fock builds, checkpointing paced by measured cost, and per-tenant
// metrics.
type Server struct {
	cfg       Config
	queue     *FairQueue
	store     *Store
	metrics   *Metrics
	admission Admission
	// newBuilder builds one job's Fock builder (nil for a serial build).
	// Feedback schedulers accumulate per-job measured-cost state, so
	// builders are never shared between concurrently running jobs.
	newBuilder func() (chem.FockBuilder, error)

	jmu  sync.Mutex
	jobs map[string]*Job // guarded by jmu

	wmu       sync.Mutex
	writeCost time.Duration // guarded by wmu; EWMA of one spool write, 0 before the first

	draining  chan struct{} // closed by Drain; checked between iterations
	drainOnce sync.Once
	wg        sync.WaitGroup
	idSeq     atomic.Int64
	idBase    string
	started   time.Time
	recovered int // jobs re-enqueued from the spool at startup
}

// errDraining interrupts a running SCF when the server drains; the job
// stays checkpointed in the spool for the next process.
var errDraining = errors.New("server draining")

// ckptWorkRatio paces checkpoints: a running job writes ckpt.json once
// the SCF wall time since its last durable write (its spec, or its
// previous checkpoint) reaches ckptWorkRatio times the server's estimate
// of one spool write. Checkpoints then cost about 1/ckptWorkRatio of a
// job's run time, and a crash loses at most one iteration plus
// ckptWorkRatio writes' worth of work. Measured on serve_closed2 (2-vCPU
// guest, ext4 spool, one write ≈ 0.25 ms; medians of three alternating
// 6 s runs; ratio 0 is a checkpoint after every iteration) and, for the
// checkpoints per job (H2 / water / waters:6, all STO-3G), on jobs run
// one at a time:
//
//	ratio  latency_p50_ms  latency_p95_ms  jobs_per_s  checkpoints per job
//	 0     0.95            5.44            1217        2 / 8 / 10
//	 3     0.55            4.59            1701        0 / 0.6 / 10
//	10     0.49            4.12            1900        0 / 0 / 10
//	30     0.45            3.85            2056        0 / 0 / 9
//
// At 10 a waters:6 job still checkpoints every iteration; at 30 it
// starts skipping some, and the served latencies hardly move.
const ckptWorkRatio = 10

// writeCostWeight is the weight of the newest measured write in the
// server's EWMA of one spool write's cost.
const writeCostWeight = 0.2

// estFlopsPerSecond is the nominal single-worker service rate in the
// NBF⁴ cost units of JobSpec.EstimateCost, used only for cold-server
// Retry-After hints (Admission.FallbackRate) until a measured drain rate
// exists. Deliberately conservative: over-estimating the rate would make
// cold servers hand out hints that are too short.
const estFlopsPerSecond = 1e6

// New builds a Server over a spool directory, re-enqueueing every
// incomplete job found there (the checkpoint/restart path): a job killed
// mid-SCF resumes from its last committed iteration.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	store, err := NewStore(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	opt := core.WallOptions{Seed: cfg.Seed, Block: cfg.DynBlock}
	newBuilder := func() (chem.FockBuilder, error) { return nil, nil } // serial
	if cfg.Sched != "" {
		newBuilder = func() (chem.FockBuilder, error) {
			return core.SchedulerFockBuilder(cfg.Sched, cfg.FockWorkers, opt)
		}
	}
	// Validate eagerly so a bad -sched fails at startup, not when the
	// first job runs.
	if _, err := newBuilder(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		queue:   NewFairQueue(cfg.TenantWeights),
		store:   store,
		metrics: NewMetrics(),
		admission: Admission{
			MaxDepth: cfg.MaxDepth, MaxQueuedFlops: cfg.MaxQueuedFlops,
			// Until the first job completes there is no measured drain
			// rate; Retry-After hints fall back to the nominal per-worker
			// service rate so a cold (just-restarted) server still scales
			// its hints with the backlog.
			FallbackRate: float64(cfg.Workers) * estFlopsPerSecond,
		},
		newBuilder: newBuilder,
		jobs:       map[string]*Job{},
		draining:   make(chan struct{}),
		started:    now(),
	}
	s.idBase = strconv.FormatInt(s.started.UnixNano(), 36)

	ids, specs, err := store.Incomplete()
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		est, nbf, err := specs[i].EstimateCost()
		if err != nil {
			cfg.Logf("serve: spool job %s unrecoverable: %v", id, err)
			continue
		}
		job := newJob(id, specs[i], est, nbf)
		s.addJob(job)
		s.queue.Push(job)
		s.recovered++
	}
	if s.recovered > 0 {
		cfg.Logf("serve: recovered %d incomplete job(s) from %s", s.recovered, store.Dir())
	}
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Recovered reports how many spool jobs were re-enqueued at startup.
func (s *Server) Recovered() int { return s.recovered }

// Drain stops the server: no new admissions, sleeping workers wake and
// exit, and running jobs are interrupted at their next iteration
// boundary — after their checkpoint hit the spool — so a successor
// process resumes them. Blocks until every worker has returned.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		close(s.draining)
		s.queue.Close()
	})
	s.wg.Wait()
}

func (s *Server) drainingNow() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// worker is one slot of the bounded pool: pull from the fair queue, run
// the job, repeat until the queue closes or the server drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.queue.Pop()
		if !ok {
			return
		}
		if s.drainingNow() {
			// The job stays incomplete in the spool; only the in-memory
			// queue loses it, and a restarted server re-enqueues it.
			job.requeue()
			return
		}
		s.runJob(job)
	}
}

// runJob executes one SCF job end to end: resume from the spool
// checkpoint when one exists, stream per-iteration progress, checkpoint
// when checkpointDue says so, and persist the terminal state.
//
// A panic on the job's goroutine — the integral kernel, the builder, a
// callback — is that job's failure, not the server's: it is recorded
// through failJob, so the spool holds a result and a restarted server
// does not re-enqueue the job and die again, and the worker carries on.
// A panic on one of a parallel builder's worker goroutines arrives here
// too: core re-raises it on this goroutine as a *core.WorkerPanic.
func (s *Server) runJob(job *Job) {
	reg := s.metrics.Tenant(job.Tenant())
	// Touched at zero so /metrics shows the series for tenants whose jobs
	// are too short to checkpoint.
	reg.Count(CCheckpoints, 0, 0)
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			if wp, ok := p.(*core.WorkerPanic); ok {
				p, stack = wp.Value, wp.Stack
			}
			s.cfg.Logf("serve: job %s: panic: %v\n%s", job.ID, p, stack)
			s.failJob(job, reg, fmt.Errorf("panic: %v", p))
		}
	}()

	ckpt, err := s.store.LoadCheckpoint(job.ID)
	if err != nil {
		s.cfg.Logf("serve: job %s: discarding unreadable checkpoint: %v", job.ID, err)
		ckpt = nil
	}

	mol, err := job.Spec.BuildMolecule()
	if err != nil {
		s.failJob(job, reg, err)
		return
	}
	bs, err := chem.NewBasis(job.Spec.Basis, mol)
	if err != nil {
		s.failJob(job, reg, err)
		return
	}
	if ckpt != nil && ckpt.N != bs.NBF {
		s.cfg.Logf("serve: job %s: checkpoint dimension %d != %d, restarting from scratch", job.ID, ckpt.N, bs.NBF)
		ckpt = nil
	}

	resumedFrom := 0
	if ckpt != nil {
		resumedFrom = ckpt.Iteration
	}
	wait := job.markStarted(resumedFrom)
	reg.Observe(HQueueWait, 0, wait.Seconds())
	if resumedFrom > 0 {
		reg.Count(CJobsResumed, 0, 1)
	}

	maxIter := job.Spec.MaxIter
	if maxIter == 0 {
		maxIter = s.cfg.DefaultMaxIter
	}
	// lastDurable is when the job's work was last on disk: the spec or
	// the checkpoint it resumes from. Only SCF time counts as work at
	// risk, so the clock starts with the run, not at admission.
	lastDurable := now()
	opts := chem.SCFOptions{
		MaxIter: maxIter,
		UseDIIS: true,
		OnIteration: func(p chem.SCFProgress) error {
			job.publish(Progress{Iter: p.Iter, Energy: p.Energy, DeltaE: p.DeltaE, RMSD: p.RMSD})
			reg.Count(CIterations, 0, 1)
			draining := s.drainingNow()
			if checkpointDue(sinceStart(lastDurable), s.spoolWriteCost(), draining) {
				c := &core.SCFCheckpoint{
					JobID:     job.ID,
					Molecule:  mol.Name,
					Basis:     job.Spec.Basis,
					N:         bs.NBF,
					Iteration: p.Iter,
					Energy:    p.Energy,
					Density:   p.D.Data,
				}
				if err := s.spoolWrite(func() error { return s.store.SaveCheckpoint(job.ID, c) }); err != nil {
					s.cfg.Logf("serve: job %s: checkpoint write failed: %v", job.ID, err)
				} else {
					reg.Count(CCheckpoints, 0, 1)
					lastDurable = now()
				}
			}
			if draining {
				return errDraining
			}
			return nil
		},
	}
	if ckpt != nil {
		opts.Resume = &chem.SCFRestart{
			Iteration: ckpt.Iteration,
			Energy:    ckpt.Energy,
			D:         linalg.NewMatrixFrom(ckpt.N, ckpt.N, ckpt.Density),
		}
	}

	builder, err := s.newBuilder()
	if err != nil {
		s.failJob(job, reg, err)
		return
	}
	res, err := chem.RunSCF(mol, bs, opts, builder)
	switch {
	case err == nil:
		job.finish(res.Converged, "", func(latency time.Duration) {
			reg.Count(CJobsCompleted, 0, 1)
			reg.Observe(HJobLatency, 0, latency.Seconds())
			reg.Add(GFlopsServed, 0, job.EstCost)
			s.metrics.AddServedFlops(job.EstCost)
		})
		if err := s.spoolWrite(func() error {
			return s.store.SaveResult(job.ID, &JobResult{
				ID: job.ID, Converged: res.Converged, Energy: res.Energy,
				Iterations: res.Iterations, ResumedFrom: resumedFrom,
			})
		}); err != nil {
			s.cfg.Logf("serve: job %s: result write failed: %v", job.ID, err)
		}
	case errors.Is(err, errDraining):
		// Preempted after a checkpoint that checkpointDue forces on a
		// draining server: back to "queued" for the successor process,
		// which re-reads the spool.
		job.requeue()
	default:
		s.failJob(job, reg, err)
	}
}

// failJob records a terminal failure in memory, spool and metrics.
func (s *Server) failJob(job *Job, reg *obs.Registry, err error) {
	job.finish(false, err.Error(), func(latency time.Duration) {
		reg.Count(CJobsFailed, 0, 1)
		reg.Observe(HJobLatency, 0, latency.Seconds())
	})
	if werr := s.spoolWrite(func() error {
		return s.store.SaveResult(job.ID, &JobResult{ID: job.ID, Error: err.Error()})
	}); werr != nil {
		s.cfg.Logf("serve: job %s: result write failed: %v", job.ID, werr)
	}
}

// checkpointDue is the checkpoint rule, given the SCF work since the
// job's last durable write and the estimated cost of one spool write:
// write once the work reaches ckptWorkRatio writes, or when no write has
// been measured yet (the write measures one), and always on a draining
// server, so that the successor resumes from the job's last published
// iteration.
func checkpointDue(work, writeCost time.Duration, draining bool) bool {
	return draining || writeCost <= 0 || work >= ckptWorkRatio*writeCost
}

// spoolWrite runs one spool write and folds its measured duration into
// the server's estimate of a write's cost. A failed write measures
// nothing.
func (s *Server) spoolWrite(write func() error) error {
	t0 := now()
	if err := write(); err != nil {
		return err
	}
	d := sinceStart(t0)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.writeCost == 0 {
		s.writeCost = d
	} else {
		s.writeCost += time.Duration(writeCostWeight * float64(d-s.writeCost))
	}
	return nil
}

// spoolWriteCost returns the estimated cost of one spool write, 0 when
// none has been measured.
func (s *Server) spoolWriteCost() time.Duration {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.writeCost
}

func (s *Server) addJob(j *Job) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.jobs[j.ID] = j
}

func (s *Server) getJob(id string) *Job {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.jobs[id]
}

func (s *Server) nextID() string {
	return fmt.Sprintf("%s-%06d", s.idBase, s.idSeq.Add(1))
}

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs           submit a JobSpec → 202 {id,...} | 429 Retry-After
//	GET  /v1/jobs/{id}      job status snapshot
//	GET  /v1/jobs/{id}/stream  NDJSON per-iteration progress until terminal
//	GET  /metrics           per-tenant OpenMetrics
//	GET  /healthz           liveness + queue stats
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// writeJSON writes a JSON response with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retryAfterSec,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.drainingNow() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server draining"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large"})
		return
	}
	spec, err := DecodeJobSpec(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	est, nbf, err := spec.EstimateCost()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	drainRate := 0.0
	if up := sinceStart(s.started).Seconds(); up > 0 {
		drainRate = s.metrics.ServedFlops() / up
	}
	retry, ok := s.admission.Admit(s.queue.Depth(), s.queue.QueuedFlops(), est, drainRate)
	if !ok {
		s.metrics.Tenant(spec.Tenant).Count(CJobsRejected, 0, 1)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:      "queue full: admission control rejected the job",
			RetryAfter: retry,
		})
		return
	}

	job := newJob(s.nextID(), spec, est, nbf)
	if err := s.spoolWrite(func() error { return s.store.SaveSpec(job.ID, spec) }); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "spool write failed"})
		return
	}
	s.addJob(job)
	if !s.queue.Push(job) {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server draining"})
		return
	}
	s.metrics.Tenant(spec.Tenant).Count(CJobsSubmitted, 0, 1)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":      job.ID,
		"status":  "/v1/jobs/" + job.ID,
		"stream":  "/v1/jobs/" + job.ID + "/stream",
		"estCost": est,
		"nbf":     nbf,
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if job := s.getJob(id); job != nil {
		writeJSON(w, http.StatusOK, job.Status())
		return
	}
	// Jobs finished by an earlier process live only in the spool.
	if res, err := s.store.LoadResult(id); err == nil && res != nil {
		st := JobStatus{ID: id, State: StateDone, Converged: res.Converged,
			Energy: res.Energy, Iter: res.Iterations, ResumedFrom: res.ResumedFrom}
		if res.Error != "" {
			st.State = StateFailed
			st.Error = res.Error
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + id})
}

// streamEvent is one NDJSON line of the progress stream.
type streamEvent struct {
	Type     string     `json:"type"` // "progress" | "status"
	Progress *Progress  `json:"progress,omitempty"`
	Status   *JobStatus `json:"status,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.getJob(r.PathValue("id"))
	if job == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	ch, cancel := job.subscribe()
	defer cancel()

	writeStatus := func() {
		st := job.Status()
		enc.Encode(streamEvent{Type: "status", Status: &st})
	}
	// Late subscribers see the current state immediately.
	writeStatus()
	if canFlush {
		fl.Flush()
	}
	for {
		select {
		case p := <-ch:
			enc.Encode(streamEvent{Type: "progress", Progress: &p})
			if canFlush {
				fl.Flush()
			}
		case <-job.Done():
			// Drain progress events published before the terminal state.
			for {
				select {
				case p := <-ch:
					enc.Encode(streamEvent{Type: "progress", Progress: &p})
					continue
				default:
				}
				break
			}
			writeStatus()
			if canFlush {
				fl.Flush()
			}
			return
		case <-r.Context().Done():
			return
		case <-s.draining:
			writeStatus()
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := s.metrics.Global()
	g.Set(GQueueDepth, 0, float64(s.queue.Depth()))
	g.Set(GQueueFlops, 0, s.queue.QueuedFlops())
	g.Set(GUptime, 0, sinceStart(s.started).Seconds())
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	if err := s.metrics.WriteOpenMetrics(w); err != nil {
		s.cfg.Logf("serve: metrics: %v", err)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queueDepth":  s.queue.Depth(),
		"queuedFlops": s.queue.QueuedFlops(),
		"workers":     s.cfg.Workers,
		"draining":    s.drainingNow(),
	})
}
