package core

import "fmt"

// AllModels returns one instance of every execution model under study, in
// the canonical presentation order, seeded deterministically.
func AllModels(seed int64) []Model {
	return []Model{
		StaticBlock{},
		StaticCyclic{},
		DynamicCounter{Chunk: 1},
		WorkStealing{Seed: seed},
		Persistence{Iterations: 3},
		SemiMatchingLB{Seed: seed},
		HypergraphLB{Seed: seed},
	}
}

// ModelByName instantiates a model from its canonical name.
func ModelByName(name string, seed int64) (Model, error) {
	for _, m := range AllModels(seed) {
		if m.Name() == name {
			return m, nil
		}
	}
	switch name {
	case "work-stealing-one":
		return WorkStealing{Steal: StealOne, Seed: seed}, nil
	case "work-stealing-maxvictim":
		return WorkStealing{Victim: MostLoadedVictim, Seed: seed}, nil
	case "hypergraph-flat":
		return HypergraphLB{Flat: true, Seed: seed}, nil
	case "work-stealing-hier":
		return WorkStealing{Hierarchical: true, Seed: seed}, nil
	case "self-sched-guided":
		return SelfScheduling{Policy: GuidedChunk{}}, nil
	case "self-sched-factoring":
		return SelfScheduling{Policy: FactoringChunk{}}, nil
	case "persistence-sm":
		return PersistenceSM{Iterations: 3, Seed: seed}, nil
	case "persistence-feedback":
		return Scheduled{
			S:          NewPersistenceSched(PersistenceOptions{Alpha: feedbackAlphaDefault, WarmStart: true, Seed: seed}),
			Iterations: 3,
		}, nil
	}
	return nil, fmt.Errorf("core: unknown model %q", name)
}

// ModelNames returns the canonical model names.
func ModelNames() []string {
	ms := AllModels(0)
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name()
	}
	return names
}
