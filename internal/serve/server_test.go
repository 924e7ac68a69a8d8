package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
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

func TestServerStreamDeliversProgressAndTerminalStatus(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	s.Start()
	defer s.Drain()

	id, _ := submit(t, ts, `{"tenant":"alice","molecule":"water","basis":"sto-3g"}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	progress, lastIter := 0, 0
	var terminal *JobStatus
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "progress":
			progress++
			if ev.Progress.Iter <= lastIter {
				t.Fatalf("iterations not increasing: %d after %d", ev.Progress.Iter, lastIter)
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
	if progress == 0 {
		t.Fatal("stream delivered no progress events")
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
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("metrics not terminated with # EOF")
	}
	if n := strings.Count(body, "# EOF"); n != 1 {
		t.Errorf("metrics has %d EOF terminators, want 1", n)
	}
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
// worker and two jobs, draining mid-first-job leaves the untouched second
// job (and, when the first was interrupted, its checkpoint) in the spool,
// and a successor server completes everything.
func TestServerDrainPreservesQueuedWork(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{Workers: 1, SpoolDir: dir})
	s.Start()

	idA, _ := submit(t, ts, `{"tenant":"acme","molecule":"waters:3","basis":"sto-3g"}`)
	idB, _ := submit(t, ts, `{"tenant":"acme","molecule":"water","basis":"sto-3g"}`)

	// Wait until job A reports progress, then drain mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st := getStatus(t, ts, idA); st.Iter >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never progressed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Drain()

	resB, err := s.store.LoadResult(idB)
	if err != nil {
		t.Fatalf("LoadResult(B): %v", err)
	}
	if resB != nil {
		t.Fatalf("job B ran on a draining single-worker server: %+v", resB)
	}

	// Successor process over the same spool.
	s2, err := New(Config{SpoolDir: dir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s2.Recovered() < 1 {
		t.Fatalf("Recovered() = %d, want >= 1", s2.Recovered())
	}
	s2.Start()
	finalA := waitResult(t, s2.store, idA, 60*time.Second)
	finalB := waitResult(t, s2.store, idB, 60*time.Second)
	s2.Drain()

	if !finalA.Converged || !finalB.Converged {
		t.Fatalf("post-restart results not converged: A=%+v B=%+v", finalA, finalB)
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
