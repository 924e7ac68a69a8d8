package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"execmodels/internal/core"
)

// Store is the spool directory backing checkpoint/restart: one
// sub-directory per job holding spec.json (written at admission),
// ckpt.json (rewritten atomically after checkpointed iterations, in the
// core.SCFCheckpoint format) and result.json (written once on
// completion). A job directory with a spec but no result is an
// incomplete job; a restarted server re-enqueues it and resumes from
// ckpt.json when present.
type Store struct {
	dir string
}

// JobResult is the terminal record persisted for a finished job.
type JobResult struct {
	ID          string  `json:"id"`
	Converged   bool    `json:"converged"`
	Energy      float64 `json:"energy"`
	Iterations  int     `json:"iterations"`
	ResumedFrom int     `json:"resumedFrom,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// NewStore opens (creating if needed) a spool directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: spool dir is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the spool root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobDir(id string) string { return filepath.Join(s.dir, id) }

// SaveSpec persists a newly admitted job's spec.
func (s *Store) SaveSpec(id string, spec *JobSpec) error {
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return fmt.Errorf("serve: spool: %w", err)
	}
	return writeFileAtomic(filepath.Join(s.jobDir(id), "spec.json"), func(f *os.File) error {
		return json.NewEncoder(f).Encode(spec)
	})
}

// SaveCheckpoint atomically replaces the job's checkpoint. The write
// goes to a temp file in the same directory and is renamed into place,
// so a crash mid-write leaves the previous checkpoint intact and a
// restarted server resumes from it.
func (s *Store) SaveCheckpoint(id string, c *core.SCFCheckpoint) error {
	return writeFileAtomic(filepath.Join(s.jobDir(id), "ckpt.json"), func(f *os.File) error {
		return core.WriteSCFCheckpoint(f, c)
	})
}

// LoadCheckpoint returns the job's last checkpoint, or (nil, nil) when
// none was ever written.
func (s *Store) LoadCheckpoint(id string) (*core.SCFCheckpoint, error) {
	f, err := os.Open(filepath.Join(s.jobDir(id), "ckpt.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	defer f.Close()
	return core.ReadSCFCheckpoint(f)
}

// SaveResult persists the terminal record and removes the now-redundant
// checkpoint.
func (s *Store) SaveResult(id string, r *JobResult) error {
	err := writeFileAtomic(filepath.Join(s.jobDir(id), "result.json"), func(f *os.File) error {
		return json.NewEncoder(f).Encode(r)
	})
	if err != nil {
		return err
	}
	// Best-effort: a stale checkpoint next to a result is never read.
	os.Remove(filepath.Join(s.jobDir(id), "ckpt.json"))
	return nil
}

// LoadResult returns a finished job's record, or (nil, nil) when the job
// never finished.
func (s *Store) LoadResult(id string) (*JobResult, error) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "result.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	var r JobResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("serve: spool: bad result for %s: %w", id, err)
	}
	return &r, nil
}

// Incomplete scans the spool and returns the IDs (sorted, so recovery
// order is deterministic) of jobs with a spec but no result — the jobs a
// restarted server must resume — together with their decoded specs.
func (s *Store) Incomplete() (ids []string, specs []*JobSpec, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: spool: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, id := range names {
		if _, statErr := os.Stat(filepath.Join(s.jobDir(id), "result.json")); statErr == nil {
			continue
		}
		data, readErr := os.ReadFile(filepath.Join(s.jobDir(id), "spec.json"))
		if readErr != nil {
			continue // half-created job dir: nothing recoverable
		}
		spec, decErr := DecodeJobSpec(data)
		if decErr != nil {
			continue // corrupted spec: skip rather than wedge recovery
		}
		ids = append(ids, id)
		specs = append(specs, spec)
	}
	return ids, specs, nil
}

// writeFileAtomic writes via a same-directory temp file + rename.
func writeFileAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: spool: %w", err)
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: spool: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: spool: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: spool: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: spool: %w", err)
	}
	return nil
}
