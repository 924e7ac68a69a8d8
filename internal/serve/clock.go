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
//     SCF progress, and checkpointing every committed iteration in the
//     core.SCFCheckpoint spool format so a killed-and-restarted server
//     resumes mid-job (store.go);
//   - per-tenant observability (metrics.go) exported through
//     obs.WriteOpenMetrics.
//
// Unlike the simulator packages, serve runs on the real clock by design:
// the sanctioned wall-clock reads are concentrated in this file and
// individually justified to the determinism check, which covers this
// package precisely so that any new bare clock read must be argued for.
package serve

import "time"

// now is the serving layer's single wall-clock read. Everything that
// needs real time — job timestamps, latency and queue-wait histograms,
// Retry-After drain estimates — derives from this function, keeping the
// "measures real time" surface auditable exactly like core's stopwatch.
func now() time.Time {
	//lint:ignore determinism the serving layer runs on the real clock: job timestamps, latency histograms and Retry-After hints measure live traffic; they never feed the deterministic simulator outputs
	return time.Now()
}

// sinceStart returns the elapsed wall time since t, via the sanctioned
// clock read.
func sinceStart(t time.Time) time.Duration {
	return now().Sub(t)
}
