// Command scfd is the multi-tenant SCF job server: an HTTP daemon that
// admits JSON job specs, schedules them through a per-tenant weighted
// fair queue onto a bounded worker pool running the wall-clock Fock
// backend, checkpoints every committed iteration into a spool directory,
// and — killed or gracefully drained — resumes incomplete jobs from that
// spool on the next start.
//
// Usage:
//
//	scfd -addr :8080 -spool ./spool -workers 4
//	scfd -spool ./spool -weights acme=3,guest=1 -max-depth 256
//
// SIGINT/SIGTERM triggers a graceful drain: running jobs stop at their
// next iteration boundary (checkpoint already on disk), queued jobs stay
// in the spool, and the process exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"execmodels/internal/core"
	"execmodels/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		spool       = flag.String("spool", "spool", "checkpoint/restart spool directory")
		workers     = flag.Int("workers", 0, "job worker pool size (0 = GOMAXPROCS)")
		sched       = flag.String("sched", "", "balancing policy of each job's Fock builds: "+strings.Join(core.WallSchedulerNames(), " | ")+" (default: stealing when -fock-workers > 1, else a serial build)")
		fockWorkers = flag.Int("fock-workers", 1, "intra-job Fock-build workers")
		dynBlock    = flag.Int("dyn-block", 4, "tasks fetched per shared-counter op under -sched dynamic")
		seed        = flag.Int64("seed", 1, "victim-selection seed under -sched stealing")
		maxDepth    = flag.Int("max-depth", 512, "admission bound on queued jobs (-1 disables)")
		maxFlops    = flag.Float64("max-queued-flops", 1e9, "admission bound on queued work, NBF^4 units (-1 disables)")
		weightSpec  = flag.String("weights", "", "tenant fair-share weights, e.g. acme=3,guest=1")
		ckptEvery   = flag.Int("checkpoint-every", 1, "checkpoint every k-th SCF iteration")
		maxIter     = flag.Int("default-max-iter", 100, "SCF iteration cap for specs that leave maxIter unset")
	)
	flag.Parse()

	weights, err := parseWeights(*weightSpec)
	if err != nil {
		log.Fatalf("scfd: %v", err)
	}
	s, err := serve.New(serve.Config{
		Workers:         *workers,
		Sched:           *sched,
		FockWorkers:     *fockWorkers,
		DynBlock:        *dynBlock,
		Seed:            *seed,
		SpoolDir:        *spool,
		MaxDepth:        *maxDepth,
		MaxQueuedFlops:  *maxFlops,
		TenantWeights:   weights,
		CheckpointEvery: *ckptEvery,
		DefaultMaxIter:  *maxIter,
	})
	if err != nil {
		log.Fatalf("scfd: %v", err)
	}
	s.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("scfd: serving on %s (spool %s, %d recovered)", *addr, *spool, s.Recovered())

	select {
	case err := <-errc:
		log.Fatalf("scfd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("scfd: draining (running jobs stop at the next checkpointed iteration)")
	s.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("scfd: http shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("scfd: %v", err)
	}
	log.Printf("scfd: drained cleanly")
	os.Exit(0)
}

// parseWeights parses "tenant=weight,tenant=weight".
func parseWeights(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad weight %q (want tenant=weight)", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight %q: must be a positive number", part)
		}
		out[name] = w
	}
	return out, nil
}
