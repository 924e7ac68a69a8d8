package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/serve"
)

const (
	serveClients = 2
	// Each block of serveBlock jobs holds serveWatersPerBlock water jobs
	// at seeded positions: the 90/10 mix is exact over any window, so
	// jobs_per_s does not move with the seed's luck. At 90/10 the water
	// jobs keep a worker busy a third of the time, so the median latency
	// sits among the H2 jobs that had the server to themselves and the
	// 95th percentile is the median water job; at 80/20 the median sat on
	// the edge between H2 jobs with and without a water job beside them
	// and moved 30% from run to run.
	serveBlock          = 10
	serveWatersPerBlock = 1
	// maxServeJobs bounds the seeded job list; a 60 s window at today's
	// rate uses under half of it.
	maxServeJobs = 40000
	// A client removes the spool directory of the job it finished
	// sweepLag jobs ago. scfd has no janitor, and a run that left its
	// 15 000 files for one bulk delete at the end slowed every fsync of
	// the next run: on this host's discard-mounted ext4 the freed blocks
	// keep the disk busy for minutes, and consecutive runs differed by 2x
	// in latency_p50_ms. Swept as it goes, a run meets the same disk from
	// its first second and leaves nothing behind. The lag keeps the sweep
	// clear of the server, which writes result.json just after the
	// stream's last line.
	sweepLag = 50
)

const (
	classH2 = iota
	classWater
)

var classNames = [...]string{classH2: "h2", classWater: "water"}

// servedJob is one job of the seeded order and, once it ran, what its
// client saw.
type servedJob struct {
	class int
	body  []byte // the JSON the client posts
	spec  *serve.JobSpec

	id       string
	t0       time.Time
	submit   float64 // seconds: the POST round trip
	latency  float64 // seconds: before the POST to the terminal status line
	rejected bool
	err      error
	status   serve.JobStatus
}

// serveJobs makes the seeded job order: 90% H2 at jittered bond lengths
// as inline geometry, 10% single waters with distinct geometry seeds.
func serveJobs(seed int64, n int) ([]*servedJob, error) {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*servedJob, 0, n)
	for len(jobs) < n {
		var water [serveBlock]bool
		for _, p := range rng.Perm(serveBlock)[:serveWatersPerBlock] {
			water[p] = true
		}
		for p := 0; p < serveBlock && len(jobs) < n; p++ {
			spec := &serve.JobSpec{Tenant: "bench", Basis: "sto-3g"}
			class := classH2
			if water[p] {
				class = classWater
				spec.Molecule = "waters:1"
				spec.Seed = seed*1_000_003 + int64(len(jobs)) + 1
			} else {
				r := 1.3 + 0.2*rng.Float64()
				spec.Geometry = []serve.AtomSpec{{Element: "H"}, {Element: "H", Z: r}}
			}
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, fmt.Errorf("encode job spec: %w", err)
			}
			jobs = append(jobs, &servedJob{class: class, body: body, spec: spec})
		}
	}
	return jobs, nil
}

// harness is one in-process scfd: the server, its listener and spool.
type harness struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	spool  string

	// The number and size of the job directories swept while spans were
	// on: what a finished job leaves in the spool.
	sweptJobs, sweptBytes atomic.Int64
}

// startServer starts a cold scfd on a fresh spool under scratch and
// returns it with the seconds from serve.New to the first healthy
// GET /healthz.
func startServer(scratch string) (*harness, float64, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, 0, fmt.Errorf("scratch directory: %w", err)
	}
	spool, err := os.MkdirTemp(scratch, "spool-")
	if err != nil {
		return nil, 0, fmt.Errorf("spool directory: %w", err)
	}
	t0 := time.Now()
	srv, err := serve.New(serve.Config{
		Workers: serveClients, FockWorkers: 1, SpoolDir: spool,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		os.RemoveAll(spool)
		return nil, 0, fmt.Errorf("serve.New: %w", err)
	}
	srv.Start()
	h := &harness{srv: srv, ts: httptest.NewServer(srv.Handler()), spool: spool}
	h.client = h.ts.Client()
	resp, err := h.client.Get(h.ts.URL + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	cold := time.Since(t0).Seconds()
	if err != nil {
		h.stop()
		return nil, 0, fmt.Errorf("GET /healthz: %w", err)
	}
	return h, cold, nil
}

// stop closes the listener, drains the workers and removes the spool.
func (h *harness) stop() {
	h.ts.Close()
	h.srv.Drain()
	os.RemoveAll(h.spool)
}

// serveOne is one turn of a closed-loop client: post the job, follow its
// stream to the terminal status line.
func (h *harness) serveOne(j *servedJob) {
	j.t0 = time.Now()
	resp, err := h.client.Post(h.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		j.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return
	}
	var accepted struct {
		ID     string `json:"id"`
		Stream string `json:"stream"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&accepted)
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	j.submit = time.Since(j.t0).Seconds()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		j.rejected = true
		j.err = fmt.Errorf("POST /v1/jobs: refused with status %d", resp.StatusCode)
		return
	case resp.StatusCode != http.StatusAccepted:
		j.err = fmt.Errorf("POST /v1/jobs: status %d", resp.StatusCode)
		return
	case decErr != nil:
		j.err = fmt.Errorf("POST /v1/jobs: reply: %w", decErr)
		return
	}
	j.id = accepted.ID

	stream, err := h.client.Get(h.ts.URL + accepted.Stream)
	if err != nil {
		j.err = fmt.Errorf("GET stream: %w", err)
		return
	}
	defer stream.Body.Close()
	rd := bufio.NewReader(stream.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			j.err = fmt.Errorf("stream of %s ended before a terminal status: %w", j.id, err)
			return
		}
		var ev struct {
			Type   string           `json:"type"`
			Status *serve.JobStatus `json:"status"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			j.err = fmt.Errorf("stream of %s: %w", j.id, err)
			return
		}
		if ev.Type == "status" && ev.Status != nil &&
			(ev.Status.State == serve.StateDone || ev.Status.State == serve.StateFailed) {
			j.latency = time.Since(j.t0).Seconds()
			j.status = *ev.Status
			_, _ = io.Copy(io.Discard, rd) // drained so the connection is reused
			return
		}
	}
}

// closedLoop runs the clients over jobs until the window has closed and
// at least minJobs are through; each client submits its next job only
// after the previous one's stream has ended. It returns the jobs served
// and the seconds from the first submission to the last completion.
func (h *harness) closedLoop(jobs []*servedJob, window time.Duration, minJobs int, rec *recorder) ([]*servedJob, float64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 1; c <= serveClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var finished []string // job ids awaiting the sweep, oldest first
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || (i >= minJobs && time.Since(start) >= window) {
					return
				}
				j := jobs[i]
				h.serveOne(j)
				if j.id != "" {
					finished = append(finished, j.id)
				}
				if len(finished) > sweepLag {
					h.sweep(finished[0], rec != nil)
					finished = finished[1:]
				}
				if rec != nil && j.err == nil {
					end := j.t0.Add(time.Duration(j.latency * float64(time.Second)))
					posted := j.t0.Add(time.Duration(j.submit * float64(time.Second)))
					root := rec.record("serve.job", j.id, 0, lane, j.t0, end, map[string]any{
						"class": classNames[j.class], "queue_wait_ms": j.status.QueueWaitMs, "run_ms": j.status.RunMs})
					rec.record("serve.submit", j.id, root, lane, j.t0, posted, nil)
					rec.record("serve.stream", j.id, root, lane, posted, end, nil)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	n := min(int(next.Load())-serveClients, len(jobs)) // each client overshoots once
	return jobs[:n], elapsed
}

// sweep removes one finished job's spool directory.
func (h *harness) sweep(id string, measure bool) {
	dir := filepath.Join(h.spool, id)
	if measure {
		if n, err := treeBytes(dir); err == nil {
			h.sweptJobs.Add(1)
			h.sweptBytes.Add(n)
		}
	}
	os.RemoveAll(dir)
}

// standalone runs every served spec again outside the server, with the
// options the server passes to RunSCF, on as many goroutines as the
// server had workers. It checks each served energy against its own and
// returns the seconds of the water-class runs.
func standalone(res *workloadResult, served []*servedJob) sample {
	type verdict struct {
		seconds float64
		msg     string
	}
	out := make([]verdict, len(served))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(served); i += serveClients {
				out[i].seconds, out[i].msg = verifyJob(served[i])
			}
		}(c)
	}
	wg.Wait()
	var water sample
	for i, j := range served {
		res.Attempted++
		if out[i].msg != "" {
			res.fail("job %d (%s, %s): %s", i, classNames[j.class], j.id, out[i].msg)
		}
		if j.class == classWater && out[i].seconds > 0 {
			water = append(water, out[i].seconds)
		}
	}
	return water
}

// verifyJob returns the stand-alone RunSCF seconds of a served job's
// spec and, if the job failed any check, why.
func verifyJob(j *servedJob) (float64, string) {
	switch {
	case j.err != nil:
		return 0, j.err.Error()
	case j.status.State != serve.StateDone:
		return 0, fmt.Sprintf("state %s: %s", j.status.State, j.status.Error)
	case !j.status.Converged:
		return 0, fmt.Sprintf("not converged after %d iterations", j.status.Iter)
	}
	mol, err := j.spec.BuildMolecule()
	if err != nil {
		return 0, err.Error()
	}
	bs, err := chem.NewBasis(j.spec.Basis, mol)
	if err != nil {
		return 0, err.Error()
	}
	t0 := time.Now()
	ref, err := chem.RunSCF(mol, bs, chem.SCFOptions{MaxIter: 100, UseDIIS: true}, nil)
	seconds := time.Since(t0).Seconds()
	switch {
	case err != nil:
		return 0, err.Error()
	case !(math.Abs(ref.Energy-j.status.Energy) <= tolEnergy):
		return seconds, fmt.Sprintf("served energy %.10f, stand-alone %.10f", j.status.Energy, ref.Energy)
	}
	return seconds, ""
}

func latencies(jobs []*servedJob, class int) (latency, submit, queueWait, run sample) {
	for _, j := range jobs {
		if j.err != nil || (class >= 0 && j.class != class) {
			continue
		}
		latency, submit = append(latency, j.latency), append(submit, j.submit)
		queueWait, run = append(queueWait, j.status.QueueWaitMs), append(run, j.status.RunMs)
	}
	return
}

// coldStarts starts and stops n servers and returns the start-up times.
func coldStarts(scratch string, n int) (sample, error) {
	var s sample
	for i := 0; i < n; i++ {
		h, cold, err := startServer(scratch)
		if err != nil {
			return nil, err
		}
		h.stop()
		s = append(s, cold)
	}
	return s, nil
}

// serveEndToEnd is the untraced run of serve_closed2.
func serveEndToEnd(cfg runConfig, scratch string) (*workloadResult, error) {
	res := &workloadResult{Workload: wlServe, Seed: cfg.seed}
	jobs, err := serveJobs(cfg.seed, maxServeJobs)
	if err != nil {
		return nil, err
	}
	// Half the cold starts come before the window and half after it, so
	// that their median spans the run.
	setups, err := coldStarts(scratch, (cfg.sz.coldStarts+1)/2)
	if err != nil {
		return nil, err
	}
	h, _, err := startServer(scratch)
	if err != nil {
		return nil, err
	}
	defer h.stop()

	warm := cfg.sz.serveWarmJobs
	h.closedLoop(jobs[:warm], 0, warm, nil)
	served, elapsed := h.closedLoop(jobs[warm:], cfg.window, cfg.sz.serveMinJobs, nil)
	after, err := coldStarts(scratch, cfg.sz.coldStarts/2)
	if err != nil {
		return nil, err
	}
	setups = append(setups, after...)

	water := standalone(res, served)
	all, _, _, _ := latencies(served, -1)
	if len(all) == 0 || len(water) == 0 {
		return nil, fmt.Errorf("no job was served: %s", res.Failures)
	}
	res.Repeats = len(served)
	res.OutlierShare = water.outlierShare()
	for class, name := range classNames {
		l, _, _, _ := latencies(served, class)
		res.note("%s class: %d jobs, latency p50 %.3f ms", name, len(l), 1e3*l.median())
	}
	res.note("closed loop: %d clients, %d jobs in %.2f s; noise.outlier_share is over the %d stand-alone water runs",
		serveClients, len(served), elapsed, len(water))
	res.add(
		fromSample("scf_s", "s", water),
		fromSample("setup_s", "s", setups),
		exact("jobs_per_s", "1/s", float64(len(all))/elapsed),
		scaled("latency_p50_ms", "ms", all, 1e3),
		exact("latency_p95_ms", "ms", 1e3*all.tail()),
	)
	return res, nil
}

// serveTraced is the traced run of serve_closed2: half the window with
// tracing off and half under spans, in alternating quarters, then the
// probes of the serve layer and of the chemistry under a water job.
func serveTraced(cfg runConfig, scratch string, rec *recorder) (*workloadResult, error) {
	res := &workloadResult{Workload: wlServe, Seed: cfg.seed, Traced: true}
	ls := layerSet{}
	jobs, err := serveJobs(cfg.seed, maxServeJobs)
	if err != nil {
		return nil, err
	}
	h, _, err := startServer(scratch)
	if err != nil {
		return nil, err
	}
	defer h.stop()

	// Four quarter-windows, spans off-on-on-off, so that a drift of the
	// host's speed does not read as the cost of tracing.
	done := cfg.sz.serveWarmJobs
	h.closedLoop(jobs[:done], 0, done, nil)
	var plain, traced []*servedJob
	for _, on := range []bool{false, true, true, false} {
		segRec := rec
		if !on {
			segRec = nil
		}
		seg, _ := h.closedLoop(jobs[done:], cfg.window/4, cfg.sz.serveMinJobs, segRec)
		done += len(seg)
		if on {
			traced = append(traced, seg...)
		} else {
			plain = append(plain, seg...)
		}
	}
	res.Repeats = len(traced)

	plainWater := standalone(res, plain)
	water := append(standalone(res, traced), plainWater...)
	all, submit, queueWait, _ := latencies(traced, -1)
	plainAll, _, _, _ := latencies(plain, -1)
	h2Lat, h2Submit, h2Wait, h2Run := latencies(traced, classH2)
	waterLat, _, _, waterRun := latencies(traced, classWater)
	if len(h2Lat) == 0 || len(waterLat) == 0 || len(plainAll) == 0 || len(water) == 0 {
		return nil, fmt.Errorf("no job was served: %s", res.Failures)
	}
	var rejected float64
	for _, j := range traced {
		if j.rejected {
			rejected++
		}
	}
	layers := h2Submit.median()*1e3 + h2Wait.median() + h2Run.median()
	res.note("h2 class: latency p50 %.3f ms; submit %.3f + queue wait %.3f + run %.3f = %.3f ms (%.0f%%; queue wait starts inside the POST, before the spec fsync)",
		1e3*h2Lat.median(), 1e3*h2Submit.median(), h2Wait.median(), h2Run.median(), layers, 100*layers/(1e3*h2Lat.median()))
	ls.put(
		scaled("serve.submit_ms_p50", "ms", submit, 1e3),
		fromSample("serve.queue_wait_ms_p50", "ms", queueWait),
		fromSample("serve.run_ms_p50.h2", "ms", h2Run),
		fromSample("serve.run_ms_p50.water", "ms", waterRun),
		exact("serve.overhead_ms.water", "ms", 1e3*(waterLat.median()-water.median())),
		exact("serve.rejected", "count", rejected),
	)

	if n := h.sweptJobs.Load(); n > 0 {
		ls.put(exact("serve.spool_bytes_per_job", "bytes", float64(h.sweptBytes.Load())/float64(n)))
	}
	if err := storeProbes(ls, h.spool, jobs[0], cfg.sz.storeProbeReps); err != nil {
		return nil, err
	}
	scrape, err := h.scrapeMetrics(2*cfg.sz.probeRepeats + 1)
	if err != nil {
		return nil, err
	}
	ls.put(scaled("serve.metrics_scrape_ms", "ms", scrape, 1e3))
	res.note("closed loop: %d clients; %d jobs untraced, %d traced; /metrics scraped with %d jobs in the server's table",
		serveClients, len(plain), len(traced), done)

	// The chemistry under a water job, on the first water of the order.
	var mol *chem.Molecule
	for _, j := range jobs {
		if j.class == classWater {
			if mol, err = j.spec.BuildMolecule(); err != nil {
				return nil, err
			}
			break
		}
	}
	k := scfKind{name: wlServe, basis: "sto-3g", workers: 1}
	if _, _, err := chemLayers(ls, res, k, cfg, mol, rec); err != nil {
		return nil, err
	}
	// chemLayers measured tracing overhead on its stand-alone run; this
	// workload's spans are around the served jobs.
	ls.put(exact("trace.overhead_share", "share", all.median()/plainAll.median()-1))
	ls.into(res)
	return res, nil
}

// storeProbes times direct serve.Store calls on the run's spool, fsync
// included, and the decoding of one job spec.
func storeProbes(ls layerSet, spool string, j *servedJob, reps int) error {
	store, err := serve.NewStore(spool)
	if err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	const id = "scfbench-probe"
	if err := store.SaveSpec(id, j.spec); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	// A water/STO-3G checkpoint: 7 basis functions.
	ckpt := &core.SCFCheckpoint{JobID: id, Molecule: "H2O", Basis: "sto-3g", N: 7, Iteration: 3,
		Energy: -74.96, Density: make([]float64, 49)}
	for i := range ckpt.Density {
		ckpt.Density[i] = 1 / float64(i+3)
	}
	var probeErr error
	keep := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	saveCkpt := timeCalls(reps, func() { keep(store.SaveCheckpoint(id, ckpt)) })
	saveRes := timeCalls(reps, func() {
		keep(store.SaveResult(id, &serve.JobResult{ID: id, Converged: true, Energy: -74.96, Iterations: 9}))
	})
	decode := timeCalls(20*reps, func() {
		_, err := serve.DecodeJobSpec(j.body)
		keep(err)
	})
	if probeErr != nil {
		return fmt.Errorf("store probe: %w", probeErr)
	}
	ls.put(
		scaled("serve.decode_us", "us", decode, 1e6),
		scaled("serve.save_checkpoint_us", "us", saveCkpt, 1e6),
		scaled("serve.save_result_us", "us", saveRes, 1e6),
	)
	return nil
}

func (h *harness) scrapeMetrics(n int) (sample, error) {
	var scrapeErr error
	s := timeCalls(n, func() {
		resp, err := h.client.Get(h.ts.URL + "/metrics")
		if err != nil {
			scrapeErr = err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body) // the scrape ends when the body has been read
		resp.Body.Close()
	})
	if scrapeErr != nil {
		return nil, fmt.Errorf("GET /metrics: %w", scrapeErr)
	}
	return s, nil
}

func treeBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("measure spool: %w", err)
	}
	return total, nil
}
