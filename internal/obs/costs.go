package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TaskCost is one task's entry in a CostProfile: the scheduler-visible
// estimate it was seeded with and the (blended) measured cost that
// replaced it.
type TaskCost struct {
	// Key is the task's stable identity (hash of its content), the same
	// key the feedback schedulers store history under.
	Key uint64 `json:"key"`
	// Est is the a-priori cost estimate (NBF⁴-style flops for Fock
	// tasks, EstCost for simulator workloads).
	Est float64 `json:"est"`
	// Measured is the latest blended measurement, in Unit.
	Measured float64 `json:"measured"`
}

// CostProfile is the exportable snapshot of a measured-cost model — the
// obs side of the obs→scheduler feedback loop. Producers emit entries
// sorted by Key so the export is a pure function of the model state;
// consumers (offline tooling) get one row per task identity.
type CostProfile struct {
	// Source names the producer (model or builder name).
	Source string `json:"source"`
	// Unit is the measurement unit: "sim_seconds" for simulator runs,
	// "wall_seconds" for the wall-clock backend.
	Unit  string     `json:"unit"`
	Tasks []TaskCost `json:"tasks"`
}

// Sort orders the entries by key (ascending), the canonical export
// order.
func (p *CostProfile) Sort() {
	sort.Slice(p.Tasks, func(i, j int) bool { return p.Tasks[i].Key < p.Tasks[j].Key })
}

// TotalMeasured returns the summed measured cost.
func (p *CostProfile) TotalMeasured() float64 {
	var s float64
	for _, t := range p.Tasks {
		s += t.Measured
	}
	return s
}

// Calibration returns Σmeasured/Σest — the global scale factor between
// the estimate units and the measured units (0 when undefined).
func (p *CostProfile) Calibration() float64 {
	var est, meas float64
	for _, t := range p.Tasks {
		est += t.Est
		meas += t.Measured
	}
	if est <= 0 {
		return 0
	}
	return meas / est
}

// WriteCostProfile writes the profile as indented JSON. The entries are
// sorted first, so two writes of the same model state are
// byte-identical.
func WriteCostProfile(w io.Writer, p *CostProfile) error {
	if p == nil {
		return fmt.Errorf("obs: nil cost profile")
	}
	p.Sort()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadCostProfile decodes a profile written by WriteCostProfile.
func ReadCostProfile(r io.Reader) (*CostProfile, error) {
	var p CostProfile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("obs: decoding cost profile: %w", err)
	}
	return &p, nil
}
