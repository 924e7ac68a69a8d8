package serve

import (
	"sync"
	"time"
)

// JobState is the lifecycle of a job inside the server.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Progress is one per-iteration SCF progress event, as streamed to
// clients and recorded in job status.
type Progress struct {
	Iter   int     `json:"iter"`
	Energy float64 `json:"energy"`
	DeltaE float64 `json:"deltaE"`
	RMSD   float64 `json:"rmsD"`
}

// JobStatus is the externally visible snapshot of a job, served by
// GET /v1/jobs/{id} and as the terminal line of the progress stream.
type JobStatus struct {
	ID          string   `json:"id"`
	Tenant      string   `json:"tenant"`
	State       JobState `json:"state"`
	Molecule    string   `json:"molecule,omitempty"`
	Basis       string   `json:"basis"`
	Priority    int      `json:"priority"`
	EstCost     float64  `json:"estCost"`
	Iter        int      `json:"iter"`
	Energy      float64  `json:"energy,omitempty"`
	Converged   bool     `json:"converged"`
	ResumedFrom int      `json:"resumedFrom,omitempty"` // checkpointed iteration a restart resumed at
	Error       string   `json:"error,omitempty"`
	QueueWaitMs float64  `json:"queueWaitMs"`
	RunMs       float64  `json:"runMs,omitempty"`
}

// Job is one submitted SCF calculation and its mutable runtime state.
type Job struct {
	ID      string
	Spec    *JobSpec
	EstCost float64 // admission/fairness cost estimate (NBF⁴ units)
	NBF     int

	fifoSeq int64 // FIFO tie-breaker, owned by FairQueue

	mu          sync.Mutex
	state       JobState        // guarded by mu
	iter        int             // guarded by mu
	energy      float64         // guarded by mu
	converged   bool            // guarded by mu
	resumedFrom int             // guarded by mu
	errMsg      string          // guarded by mu
	submitted   time.Time       // guarded by mu
	started     time.Time       // guarded by mu
	finished    time.Time       // guarded by mu
	progress    []Progress      // guarded by mu; every published iteration, at most MaxIter
	subs        []chan Progress // guarded by mu
	done        chan struct{}   // closed when the job reaches done/failed
}

// newJob creates a queued job stamped with the submission time.
func newJob(id string, spec *JobSpec, estCost float64, nbf int) *Job {
	return &Job{
		ID:        id,
		Spec:      spec,
		EstCost:   estCost,
		NBF:       nbf,
		state:     StateQueued,
		submitted: now(),
		done:      make(chan struct{}),
	}
}

// Tenant returns the owning tenant.
func (j *Job) Tenant() string { return j.Spec.Tenant }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// markStarted transitions queued → running and returns the queue wait.
func (j *Job) markStarted(resumedFrom int) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = now()
	j.resumedFrom = resumedFrom
	return j.started.Sub(j.submitted)
}

// publish records one completed iteration and fans it out to
// subscribers. Slow subscribers lose events rather than stall the
// worker: each subscriber channel is buffered and sends are
// non-blocking (the terminal status line always follows, so a dropped
// intermediate event only thins the stream).
func (j *Job) publish(p Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.iter = p.Iter
	j.energy = p.Energy
	j.progress = append(j.progress, p)
	for _, ch := range j.subs {
		select {
		case ch <- p:
		default:
		}
	}
}

// finish transitions to a terminal state and wakes all waiters. record
// runs first, with the submit-to-finish latency: whoever then sees the
// terminal state — Status, Done, the stream, the result spooled after
// finish — finds the job already counted in /metrics.
func (j *Job) finish(converged bool, errMsg string, record func(latency time.Duration)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.converged = converged
	j.errMsg = errMsg
	j.finished = now()
	record(j.finished.Sub(j.submitted))
	if errMsg == "" {
		j.state = StateDone
	} else {
		j.state = StateFailed
	}
	close(j.done)
	if j.started.IsZero() {
		j.started = j.finished
	}
}

// requeue returns a preempted running job to the queued state (used when
// a drain interrupts it after a checkpoint; a restarted server will pick
// it back up from the spool).
func (j *Job) requeue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateRunning {
		j.state = StateQueued
	}
}

// subscribe registers a progress channel and returns it with an
// unsubscribe function. The channel starts with every iteration
// published so far, so a client that subscribes late, even after the
// job has finished, still sees the whole run; it is buffered for 64
// more, see publish.
func (j *Job) subscribe() (<-chan Progress, func()) {
	j.mu.Lock()
	ch := make(chan Progress, len(j.progress)+64)
	for _, p := range j.progress {
		select {
		case ch <- p:
		default: // never taken: ch has room for every replayed event
		}
	}
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
	}
}

// Status returns a consistent snapshot of the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		Tenant:      j.Spec.Tenant,
		State:       j.state,
		Molecule:    j.Spec.Molecule,
		Basis:       j.Spec.Basis,
		Priority:    j.Spec.Priority,
		EstCost:     j.EstCost,
		Iter:        j.iter,
		Energy:      j.energy,
		Converged:   j.converged,
		ResumedFrom: j.resumedFrom,
		Error:       j.errMsg,
	}
	if !j.started.IsZero() {
		st.QueueWaitMs = float64(j.started.Sub(j.submitted).Microseconds()) / 1e3
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		st.RunMs = float64(j.finished.Sub(j.started).Microseconds()) / 1e3
	}
	return st
}
