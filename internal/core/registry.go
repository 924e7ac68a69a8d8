package core

import "execmodels/internal/cluster"

// Model is one execution model on the simulator: a balancing policy named
// once, in SchedulerByName's vocabulary, plus its options. It is a plain
// value — Run and RunWithHistory build a fresh scheduler on every call, so
// a persistence cost model never leaks from one run into the next unless
// Opt.Costs shares it on purpose.
type Model struct {
	// Sched is a SchedulerByName name.
	Sched string
	Opt   SchedOptions
	// Iterations is the number of application iterations simulated; 0
	// means 3 for a FeedbackScheduler and 1 otherwise. Above 1 a feedback
	// scheduler runs RunSchedulerIterations, and any other scheduler
	// repeats RunScheduler on the same machine.
	Iterations int
}

// scheduler builds the model's policy; an unknown name is a programming
// error (user input is validated through SchedulerByName first).
func (mod Model) scheduler() Scheduler {
	s, err := SchedulerByName(mod.Sched, mod.Opt)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the scheduler's reporting name (static-block,
// semi-matching, work-stealing, ...).
func (mod Model) Name() string { return mod.scheduler().Name() }

// Run executes the model and returns the final iteration's result.
func (mod Model) Run(w *Workload, m *cluster.Machine) *Result {
	res, _ := mod.RunWithHistory(w, m)
	return res
}

// RunWithHistory executes the model and returns the final iteration's
// result together with the per-iteration makespans.
func (mod Model) RunWithHistory(w *Workload, m *cluster.Machine) (*Result, []float64) {
	sched := mod.scheduler()
	if _, ok := sched.(FeedbackScheduler); ok {
		return RunSchedulerIterations(sched, w, m, mod.Iterations)
	}
	var res *Result
	var history []float64
	for it := 0; it < max(mod.Iterations, 1); it++ {
		res = RunScheduler(sched, w, m)
		history = append(history, res.Makespan)
	}
	return res, history
}

// AllModels returns one instance of every execution model under study, in
// the canonical presentation order, seeded deterministically.
func AllModels(seed int64) []Model {
	names := []string{"static", "cyclic", "dynamic", "stealing", "persistence", "semimatching", "hypergraph"}
	models := make([]Model, len(names))
	for i, name := range names {
		models[i] = Model{Sched: name, Opt: SchedOptions{Seed: seed}}
	}
	return models
}
