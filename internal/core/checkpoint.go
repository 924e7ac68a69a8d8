package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// SCFCheckpoint is the on-disk record of a long SCF run's last completed
// iteration. The serving layer (internal/serve) writes one after every
// committed iteration and, after a crash, resumes the job from this state:
// iterations finished after the last checkpoint are run again.
//
// Like workloadJSON in serialize.go, the format is versioned JSON with
// all state inlined (the row-major density matrix plus the scalars
// RunSCF needs to resume), so a checkpoint written by one process is
// readable by a freshly started one with no shared memory.
type SCFCheckpoint struct {
	Version   int     `json:"version"`
	JobID     string  `json:"jobId,omitempty"`    // owning job, for spool-dir audits
	Molecule  string  `json:"molecule,omitempty"` // informational: molecule name
	Basis     string  `json:"basis,omitempty"`    // informational: basis-set name
	N         int     `json:"n"`                  // density dimension (basis functions)
	Iteration int     `json:"iteration"`          // last completed SCF iteration
	Energy    float64 `json:"energy"`             // total energy after Iteration
	// Density is the row-major N×N density matrix entering Iteration+1.
	Density []float64 `json:"density"`
}

const scfCheckpointVersion = 1

// WriteSCFCheckpoint serializes c as versioned JSON. The version field is
// stamped by the writer; callers fill in everything else.
func WriteSCFCheckpoint(out io.Writer, c *SCFCheckpoint) error {
	doc := *c
	doc.Version = scfCheckpointVersion
	if err := validateSCFCheckpoint(&doc); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(&doc)
}

// ReadSCFCheckpoint deserializes a checkpoint written by
// WriteSCFCheckpoint, validating version, shape and finiteness — a
// truncated or corrupted spool file must fail loudly here, not resume a
// job from garbage.
func ReadSCFCheckpoint(in io.Reader) (*SCFCheckpoint, error) {
	var doc SCFCheckpoint
	if err := json.NewDecoder(in).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: bad SCF checkpoint JSON: %w", err)
	}
	if doc.Version != scfCheckpointVersion {
		return nil, fmt.Errorf("core: SCF checkpoint version %d, want %d", doc.Version, scfCheckpointVersion)
	}
	if err := validateSCFCheckpoint(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// validateSCFCheckpoint checks the invariants shared by reader and
// writer: a positive square density of matching length, a completed
// iteration count, and finite numerics.
func validateSCFCheckpoint(c *SCFCheckpoint) error {
	if c.N < 1 {
		return fmt.Errorf("core: SCF checkpoint has n = %d", c.N)
	}
	if len(c.Density) != c.N*c.N {
		return fmt.Errorf("core: SCF checkpoint density has %d entries for n = %d", len(c.Density), c.N)
	}
	if c.Iteration < 1 {
		return fmt.Errorf("core: SCF checkpoint iteration %d < 1", c.Iteration)
	}
	if math.IsNaN(c.Energy) || math.IsInf(c.Energy, 0) {
		return fmt.Errorf("core: SCF checkpoint energy is not finite")
	}
	for i, v := range c.Density {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: SCF checkpoint density[%d] is not finite", i)
		}
	}
	return nil
}
