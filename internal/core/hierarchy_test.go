package core

import (
	"testing"

	"execmodels/internal/cluster"
)

func nodeMachine(nodes, cores int, interLatency float64) *cluster.Machine {
	return cluster.New(cluster.Config{
		Ranks:        nodes * cores,
		CoresPerNode: cores,
		Latency:      interLatency,
		Seed:         1,
	})
}

func TestHierarchicalStealingRunsAllTasks(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 512, Dist: "triangular", Seed: 1})
	m := nodeMachine(4, 4, 1e-5)
	res := RunScheduler(StealingSched{Hierarchical: true, Seed: 2}, w, m)
	var tasks int
	for _, c := range res.TasksRun {
		tasks += c
	}
	if tasks != len(w.Tasks) {
		t.Fatalf("ran %d tasks", tasks)
	}
	if res.Model != "work-stealing-hier" {
		t.Fatalf("model name %q", res.Model)
	}
}

// With expensive inter-node links, hierarchical stealing must keep steal
// traffic on-node: far fewer steals cross a node boundary.
func TestHierarchicalReducesRemoteSteals(t *testing.T) {
	w := Synthetic(SyntheticOptions{
		NumTasks: 2048, Dist: "triangular", MeanCost: 2e4, Seed: 3,
	})
	m1 := nodeMachine(8, 4, 50e-6) // very slow network
	flat := RunScheduler(StealingSched{Seed: 4}, w, m1)
	m2 := nodeMachine(8, 4, 50e-6)
	hier := RunScheduler(StealingSched{Hierarchical: true, Seed: 4}, w, m2)
	if flat.RemoteSteals == 0 {
		t.Fatal("flat stealing did no remote steals; test setup broken")
	}
	frac := float64(hier.RemoteSteals) / float64(hier.Steals)
	flatFrac := float64(flat.RemoteSteals) / float64(flat.Steals)
	if frac >= flatFrac {
		t.Errorf("hierarchical remote-steal fraction %.2f not below flat %.2f", frac, flatFrac)
	}
	// Makespan stays comparable. (It need not *win*: local steal-half
	// fragments an overloaded node's queues, so each remote steal nets
	// less — the benefit of hierarchy is the remote-traffic reduction.)
	if hier.Makespan > 1.25*flat.Makespan {
		t.Errorf("hierarchical makespan %v far above flat %v", hier.Makespan, flat.Makespan)
	}
}

// On a flat machine (1 core per node) hierarchical degenerates to random
// stealing and must still complete correctly.
func TestHierarchicalOnFlatMachine(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 256, Dist: "lognormal", Seed: 5})
	m := testMachine(8)
	res := RunScheduler(StealingSched{Hierarchical: true, Seed: 6}, w, m)
	var tasks int
	for _, c := range res.TasksRun {
		tasks += c
	}
	if tasks != len(w.Tasks) {
		t.Fatalf("ran %d tasks", tasks)
	}
}

// Locality-aware balancers must see cheaper communication on a
// hierarchical machine when blocks live on-node.
func TestTopologyAwareCommCost(t *testing.T) {
	w := Synthetic(SyntheticOptions{NumTasks: 512, Dist: "uniform", Seed: 7})
	flat := cluster.New(cluster.Config{Ranks: 16, Seed: 1})
	hier := cluster.New(cluster.Config{Ranks: 16, CoresPerNode: 8, Seed: 1})
	rf := RunScheduler(StaticCyclicSched{}, w, flat)
	rh := RunScheduler(StaticCyclicSched{}, w, hier)
	var commFlat, commHier float64
	for r := 0; r < 16; r++ {
		commFlat += rf.CommTime[r]
		commHier += rh.CommTime[r]
	}
	if commHier >= commFlat {
		t.Errorf("hierarchical comm %v not below flat %v", commHier, commFlat)
	}
}
