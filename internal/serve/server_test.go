package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
	"execmodels/internal/linalg"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	id, _ := out["id"].(string)
	return id, resp
}

func waitResult(t *testing.T, store *Store, id string, timeout time.Duration) *JobResult {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		res, err := store.LoadResult(id)
		if err != nil {
			t.Fatalf("LoadResult(%s): %v", id, err)
		}
		if res != nil {
			return res
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s produced no result within %v", id, timeout)
	return nil
}

// referenceEnergy runs the same SCF the server runs, directly.
func referenceEnergy(t *testing.T, spec *JobSpec) float64 {
	t.Helper()
	mol, err := spec.BuildMolecule()
	if err != nil {
		t.Fatalf("BuildMolecule: %v", err)
	}
	bs, err := chem.NewBasis(spec.Basis, mol)
	if err != nil {
		t.Fatalf("NewBasis: %v", err)
	}
	res, err := chem.RunSCF(mol, bs, chem.SCFOptions{MaxIter: 100, UseDIIS: true}, nil)
	if err != nil || !res.Converged {
		t.Fatalf("reference SCF: converged=%v err=%v", res != nil && res.Converged, err)
	}
	return res.Energy
}

func TestServerEndToEnd(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})
	s.Start()
	defer s.Drain()

	id, resp := submit(t, ts, `{"tenant":"alice","molecule":"water","basis":"sto-3g"}`)
	if resp.StatusCode != http.StatusAccepted || id == "" {
		t.Fatalf("submit: status=%d id=%q", resp.StatusCode, id)
	}

	res := waitResult(t, s.store, id, 30*time.Second)
	if !res.Converged || res.Error != "" {
		t.Fatalf("job result: %+v", res)
	}
	want := referenceEnergy(t, &JobSpec{Tenant: "alice", Molecule: "water", Basis: "sto-3g"})
	if math.Abs(res.Energy-want) > 1e-8 {
		t.Fatalf("served energy %.12f, reference %.12f", res.Energy, want)
	}

	// Status endpoint agrees.
	st := getStatus(t, ts, id)
	if st.State != StateDone || !st.Converged {
		t.Fatalf("status: %+v", st)
	}
	if math.Abs(st.Energy-want) > 1e-8 {
		t.Fatalf("status energy %.12f, reference %.12f", st.Energy, want)
	}
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status: %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// The stream carries every iteration, 1..n without a gap, then the
// terminal status at iteration n: whether the client subscribes while
// the job runs (it may already have published some iterations, which
// the job replays) or after it is done.
func TestServerStreamDeliversProgressAndTerminalStatus(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain()

	id, _ := submit(t, ts, `{"tenant":"alice","molecule":"water","basis":"sto-3g"}`)
	checkStream(t, ts, id)

	<-s.getJob(id).Done()
	t.Run("after done", func(t *testing.T) { checkStream(t, ts, id) })
}

// checkStream reads job id's progress stream to its end and fails unless
// it holds iterations 1..n in order and then a done status at n.
func checkStream(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	lastIter := 0
	var terminal *JobStatus
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "progress":
			if ev.Progress.Iter != lastIter+1 {
				t.Fatalf("iteration %d after %d: the stream skipped or repeated one", ev.Progress.Iter, lastIter)
			}
			lastIter = ev.Progress.Iter
		case "status":
			terminal = ev.Status
		default:
			t.Fatalf("unknown stream event %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if terminal == nil || terminal.State != StateDone {
		t.Fatalf("stream ended without terminal done status: %+v", terminal)
	}
	if lastIter == 0 || lastIter != terminal.Iter {
		t.Fatalf("stream delivered iterations 1..%d, the job finished at %d", lastIter, terminal.Iter)
	}
}

func TestServerRejectsWithRetryAfterWhenSaturated(t *testing.T) {
	// One-job depth bound and no running workers: the second submit must
	// bounce with 429 and a Retry-After hint.
	_, ts := testServer(t, Config{Workers: 1, MaxDepth: 1})

	if _, resp := submit(t, ts, `{"tenant":"alice","molecule":"water","basis":"sto-3g"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	_, resp := submit(t, ts, `{"tenant":"bob","molecule":"water","basis":"sto-3g"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	var sec int
	if _, err := fmt.Sscanf(ra, "%d", &sec); err != nil || sec < 1 || sec > 60 {
		t.Fatalf("Retry-After %q outside 1..60", ra)
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})

	for name, body := range map[string]string{
		"bad json":     `{"tenant":`,
		"bad molecule": `{"tenant":"a","molecule":"benzene","basis":"sto-3g"}`,
		"odd charge":   `{"tenant":"a","molecule":"water","basis":"sto-3g","charge":1}`,
	} {
		_, resp := submit(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nonexistent")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestServerMetricsExposition(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain()

	id, _ := submit(t, ts, `{"tenant":"alice","molecule":"water","basis":"sto-3g"}`)
	waitResult(t, s.store, id, 30*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	body := sb.String()

	for _, want := range []string{
		`execmodels_serve_jobs_submitted_total{tenant="alice",rank="0"} 1`,
		`execmodels_serve_jobs_completed_total{tenant="alice",rank="0"} 1`,
		`tenant="_server"`,
		"serve_job_latency_seconds",
		"serve_queue_wait_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// A water job may or may not outlast ten spool writes per iteration,
	// so the count is bounded, not pinned.
	iters := metricValue(t, body, `execmodels_serve_scf_iterations_total{tenant="alice",rank="0"}`)
	ckpts := metricValue(t, body, `execmodels_serve_checkpoints_total{tenant="alice",rank="0"}`)
	if iters < 1 || ckpts < 0 || ckpts > iters {
		t.Errorf("%v checkpoints over %v iterations", ckpts, iters)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("metrics not terminated with # EOF")
	}
	if n := strings.Count(body, "# EOF"); n != 1 {
		t.Errorf("metrics has %d EOF terminators, want 1", n)
	}
}

// metricValue returns the value of the exposition line that starts with
// series.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("metrics missing %s", series)
	return 0
}

// The checkpoint rule on injected durations, with one spool write
// costing 100 µs.
func TestCheckpointDue(t *testing.T) {
	const write = 100 * time.Microsecond
	for _, tc := range []struct {
		name            string
		work, writeCost time.Duration
		draining        bool
		want            bool
	}{
		{"unknown write cost", time.Microsecond, 0, false, true},
		{"fast job", 50 * time.Microsecond, write, false, false},
		{"just short of the ratio", ckptWorkRatio*write - 1, write, false, false},
		{"at the ratio", ckptWorkRatio * write, write, false, true},
		{"slow job", time.Second, write, false, true},
		{"draining", time.Microsecond, write, true, true},
	} {
		if got := checkpointDue(tc.work, tc.writeCost, tc.draining); got != tc.want {
			t.Errorf("%s: checkpointDue(%v, %v, %v) = %v, want %v",
				tc.name, tc.work, tc.writeCost, tc.draining, got, tc.want)
		}
	}

	// A failed write is not a measurement: the cost stays unknown.
	var s Server
	full := errors.New("no space left on device")
	if err := s.spoolWrite(func() error { return full }); err != full {
		t.Fatalf("spoolWrite returned %v, want %v", err, full)
	}
	if c := s.spoolWriteCost(); c != 0 {
		t.Fatalf("write cost %v after a failed write, want 0", c)
	}

	// Admission and every worker write to the spool at once; -race
	// checks that the estimate is shared safely.
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				s.spoolWrite(func() error { return nil })
				checkpointDue(time.Millisecond, s.spoolWriteCost(), false)
			}
		}()
	}
	wg.Wait()
}

// TestServerRestartResumesFromSpool is the kill/restart path in miniature:
// a spool holding a spec plus a mid-run checkpoint (exactly what a killed
// server leaves behind) must be recovered by a new server, resumed from
// the checkpointed iteration, and driven to the same converged energy as
// an uninterrupted run.
func TestServerRestartResumesFromSpool(t *testing.T) {
	dir := t.TempDir()
	spec := &JobSpec{Tenant: "acme", Molecule: "water", Basis: "sto-3g"}
	store, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	const jobID = "job-000042"
	if err := store.SaveSpec(jobID, spec); err != nil {
		t.Fatalf("SaveSpec: %v", err)
	}

	// Produce a genuine iteration-2 checkpoint by interrupting a direct run.
	mol, _ := spec.BuildMolecule()
	bs, _ := chem.NewBasis(spec.Basis, mol)
	stop := errors.New("stop")
	var ck *core.SCFCheckpoint
	_, err = chem.RunSCF(mol, bs, chem.SCFOptions{MaxIter: 100, UseDIIS: true,
		OnIteration: func(p chem.SCFProgress) error {
			ck = &core.SCFCheckpoint{JobID: jobID, N: bs.NBF, Iteration: p.Iter,
				Energy: p.Energy, Density: p.D.Data}
			if p.Iter == 2 {
				return stop
			}
			return nil
		}}, nil)
	if !errors.Is(err, chem.ErrSCFInterrupted) {
		t.Fatalf("interrupt run: %v", err)
	}
	if err := store.SaveCheckpoint(jobID, ck); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	// "Restart": a fresh server over the same spool.
	s, err := New(Config{SpoolDir: dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.Recovered() != 1 {
		t.Fatalf("Recovered() = %d, want 1", s.Recovered())
	}
	s.Start()
	res := waitResult(t, store, jobID, 30*time.Second)
	s.Drain()

	if !res.Converged || res.Error != "" {
		t.Fatalf("resumed job did not converge: %+v", res)
	}
	if res.ResumedFrom != 2 {
		t.Fatalf("ResumedFrom = %d, want 2", res.ResumedFrom)
	}
	want := referenceEnergy(t, spec)
	if math.Abs(res.Energy-want) > 1e-8 {
		t.Fatalf("resumed energy %.12f, uninterrupted %.12f", res.Energy, want)
	}

	// The terminal status survives yet another restart via the spool.
	s2, err := New(Config{SpoolDir: dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New (second restart): %v", err)
	}
	if s2.Recovered() != 0 {
		t.Fatalf("completed job recovered again: %d", s2.Recovered())
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	st := getStatus(t, ts, jobID)
	if st.State != StateDone || !st.Converged {
		t.Fatalf("post-restart status: %+v", st)
	}
}

// A job whose Fock builder panics must end failed with the panic text in
// its result, leave its worker alive for the next job, and not come back
// on restart: before runJob recovered, the panic killed the process and
// the restarted server re-enqueued the job and died again.
func TestServerSurvivesPanickingJob(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{SpoolDir: dir, Workers: 1})
	serial := s.newBuilder
	builds := 0
	s.newBuilder = func() (chem.FockBuilder, error) {
		if builds++; builds > 1 {
			return serial()
		}
		return func(*chem.FockWorkload, *linalg.Matrix, *linalg.Matrix) *linalg.Matrix {
			panic("poisoned integral")
		}, nil
	}
	s.Start()

	const spec = `{"tenant":"alice","molecule":"h2","basis":"sto-3g"}`
	bad, _ := submit(t, ts, spec)
	res := waitResult(t, s.store, bad, 30*time.Second)
	if res.Converged || !strings.Contains(res.Error, "panic: poisoned integral") {
		t.Fatalf("panicking job result: %+v", res)
	}
	if st := getStatus(t, ts, bad); st.State != StateFailed {
		t.Fatalf("panicking job status: %+v", st)
	}

	good, _ := submit(t, ts, spec)
	if res := waitResult(t, s.store, good, 30*time.Second); !res.Converged || res.Error != "" {
		t.Fatalf("job after the panic: %+v", res)
	}
	s.Drain()

	s2, err := New(Config{SpoolDir: dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New (restart): %v", err)
	}
	if s2.Recovered() != 0 {
		t.Fatalf("restart re-enqueued %d job(s), want 0", s2.Recovered())
	}
}

// The same poison on a parallel builder: the task panics on one of the
// builder's worker goroutines, where runJob's recover cannot reach it.
// core re-raises it on the job's goroutine after the build's workers have
// stopped; before that, the panic killed the process however the job was
// wrapped. The builder under test is the server's own FockWorkers: 2
// default, handed a copy of the workload whose first task names a ket
// pair that does not exist (Tasks and the edited Kets row are copied: the
// rows share one backing array with the real workload).
func TestServerSurvivesPanickingParallelJob(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{SpoolDir: dir, Workers: 1, FockWorkers: 2})
	parallel := s.newBuilder
	jobs := 0
	s.newBuilder = func() (chem.FockBuilder, error) {
		build, err := parallel()
		if jobs++; jobs > 1 || err != nil {
			return build, err
		}
		return func(fw *chem.FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
			bad := *fw
			bad.Tasks = append([]chem.FockTask(nil), fw.Tasks...)
			kets := append([][]int32(nil), bad.Tasks[0].Kets...)
			kets[0] = append(append([]int32(nil), kets[0]...), int32(len(fw.Pairs)))
			bad.Tasks[0].Kets = kets
			return build(&bad, h, d)
		}, nil
	}
	s.Start()

	const spec = `{"tenant":"alice","molecule":"water","basis":"sto-3g"}`
	bad, _ := submit(t, ts, spec)
	res := waitResult(t, s.store, bad, 30*time.Second)
	if res.Converged || !strings.Contains(res.Error, "panic: runtime error: index out of range") {
		t.Fatalf("panicking job result: %+v", res)
	}
	if st := getStatus(t, ts, bad); st.State != StateFailed {
		t.Fatalf("panicking job status: %+v", st)
	}

	good, _ := submit(t, ts, spec)
	if res := waitResult(t, s.store, good, 30*time.Second); !res.Converged || res.Error != "" {
		t.Fatalf("job after the panic: %+v", res)
	}
	s.Drain()

	s2, err := New(Config{SpoolDir: dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New (restart): %v", err)
	}
	if s2.Recovered() != 0 {
		t.Fatalf("restart re-enqueued %d job(s), want 0", s2.Recovered())
	}
}

// Jobs served with intra-job parallelism — the default policy and two
// seam policies, one of them with per-job feedback state — must reach the
// energy of a stand-alone serial SCF.
func TestServerParallelFockMatchesSerial(t *testing.T) {
	want := referenceEnergy(t, &JobSpec{Tenant: "alice", Molecule: "water", Basis: "sto-3g"})
	for _, tc := range []struct{ name, sched string }{
		{"default", ""}, {"semimatching", "semimatching"}, {"persistence-feedback", "persistence-feedback"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := testServer(t, Config{Workers: 1, FockWorkers: 2, Sched: tc.sched})
			s.Start()
			defer s.Drain()
			id, _ := submit(t, ts, `{"tenant":"alice","molecule":"water","basis":"sto-3g"}`)
			res := waitResult(t, s.store, id, 30*time.Second)
			if !res.Converged || res.Error != "" {
				t.Fatalf("job result: %+v", res)
			}
			if math.Abs(res.Energy-want) > 1e-9 {
				t.Fatalf("served energy %.12f, serial reference %.12f", res.Energy, want)
			}
		})
	}
}

// A policy the wall-clock backend cannot run must stop the server at
// start-up, not fail the first job.
func TestNewRejectsUnrunnableSched(t *testing.T) {
	for _, sched := range []string{"bogus", "self-sched-guided"} {
		if _, err := New(Config{SpoolDir: t.TempDir(), FockWorkers: 2, Sched: sched, Logf: t.Logf}); err == nil {
			t.Errorf("Sched %q accepted", sched)
		}
	}
}

// TestServerDrainPreservesQueuedWork verifies graceful drain: with one
// worker and two jobs, draining during the first job's third Fock build
// leaves the untouched second job and the first job's checkpoint, at its
// last published iteration, in the spool, and a successor server resumes
// the first job from exactly there and completes both. The write-cost
// estimate is set so high that the pacing never makes a checkpoint due:
// the only one the spool can hold is the one the drain forces.
func TestServerDrainPreservesQueuedWork(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{Workers: 1, SpoolDir: dir})
	building, release := make(chan struct{}), make(chan struct{})
	builds := 0
	s.newBuilder = func() (chem.FockBuilder, error) {
		return func(w *chem.FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
			if builds++; builds == 3 {
				close(building)
				<-release
			}
			return w.BuildFock(h, d)
		}, nil
	}
	s.wmu.Lock()
	s.writeCost = time.Hour
	s.wmu.Unlock()

	idA, _ := submit(t, ts, `{"tenant":"acme","molecule":"waters:3","basis":"sto-3g"}`)
	idB, _ := submit(t, ts, `{"tenant":"acme","molecule":"water","basis":"sto-3g"}`)
	s.Start()
	select {
	case <-building:
	case <-time.After(30 * time.Second):
		t.Fatal("job A never reached its third build")
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	for !s.drainingNow() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-drained

	resB, err := s.store.LoadResult(idB)
	if err != nil {
		t.Fatalf("LoadResult(B): %v", err)
	}
	if resB != nil {
		t.Fatalf("job B ran on a draining single-worker server: %+v", resB)
	}
	published := s.getJob(idA).Status().Iter
	ck, err := s.store.LoadCheckpoint(idA)
	if err != nil || ck == nil {
		t.Fatalf("job A left no checkpoint: %v", err)
	}
	if published < 1 || ck.Iteration != published {
		t.Fatalf("job A checkpointed iteration %d, published %d", ck.Iteration, published)
	}

	// Successor process over the same spool.
	s2, err := New(Config{SpoolDir: dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s2.Recovered() != 2 {
		t.Fatalf("Recovered() = %d, want 2", s2.Recovered())
	}
	s2.Start()
	finalA := waitResult(t, s2.store, idA, 60*time.Second)
	finalB := waitResult(t, s2.store, idB, 60*time.Second)
	s2.Drain()

	if !finalA.Converged || !finalB.Converged {
		t.Fatalf("post-restart results not converged: A=%+v B=%+v", finalA, finalB)
	}
	if finalA.ResumedFrom != ck.Iteration {
		t.Fatalf("A resumed from iteration %d, checkpointed %d", finalA.ResumedFrom, ck.Iteration)
	}
	wantA := referenceEnergy(t, &JobSpec{Tenant: "acme", Molecule: "waters:3", Basis: "sto-3g"})
	if math.Abs(finalA.Energy-wantA) > 1e-8 {
		t.Fatalf("A energy %.12f, reference %.12f", finalA.Energy, wantA)
	}
	wantB := referenceEnergy(t, &JobSpec{Tenant: "acme", Molecule: "water", Basis: "sto-3g"})
	if math.Abs(finalB.Energy-wantB) > 1e-8 {
		t.Fatalf("B energy %.12f, reference %.12f", finalB.Energy, wantB)
	}
}

func TestServerHealthz(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if out["status"] != "ok" {
		t.Fatalf("healthz body: %v", out)
	}
}
