// Package serve is the multi-tenant SCF job server: an HTTP serving
// layer where the repository's execution models meet open-loop arrival —
// jobs of wildly different sizes submitted concurrently by many tenants.
//
// The subsystem is built from four pieces:
//
//   - a strict job-spec decoder (spec.go) turning untrusted JSON into a
//     validated molecule/basis/charge job with a cheap cost estimate;
//   - a weighted per-tenant fair priority queue (queue.go) with
//     admission control (admission.go) that rejects with Retry-After
//     when the backlog exceeds bounds;
//   - a bounded worker pool (server.go) running jobs on the wall-clock
//     Fock backend via core.SchedulerFockBuilder, streaming per-iteration
//     SCF progress, and checkpointing in the core.SCFCheckpoint spool
//     format so a killed-and-restarted server resumes mid-job
//     (store.go);
//   - per-tenant observability (metrics.go) exported through
//     obs.WriteOpenMetrics.
//
// A job checkpoints when the SCF time since its last durable write (its
// spec, or its previous checkpoint) reaches ckptWorkRatio times the
// measured cost of one spool write, and always when the server drains.
// So a kill -9 loses at most one iteration plus ckptWorkRatio writes'
// worth of work per running job, and a job shorter than that writes no
// checkpoint. The spool survives a process crash, not a power loss:
// files are fsynced before their rename, but the directory is not. A job
// is reported done just before its result.json is written; a crash in
// between re-runs the job.
//
// Unlike the simulator packages, serve runs on the real clock by design:
// the sanctioned wall-clock reads are concentrated in this file.
package serve

import "time"

// now is the serving layer's single wall-clock read. Everything that
// needs real time — job timestamps, latency and queue-wait histograms,
// Retry-After drain estimates, checkpoint pacing — derives from this
// function, keeping the "measures real time" surface auditable exactly
// like core's stopwatch.
func now() time.Time {
	return time.Now()
}

// sinceStart returns the elapsed wall time since t, via the sanctioned
// clock read.
func sinceStart(t time.Time) time.Duration {
	return now().Sub(t)
}
