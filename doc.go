// Package execmodels is a reproduction of "On the Impact of Execution
// Models: A Case Study in Computational Chemistry" (Chavarría-Miranda,
// Halappanavar, Krishnamoorthy, Manzano, Vishnu, Hoisie; IPDPSW 2015).
//
// The library lives in internal/: a Hartree–Fock chemistry kernel whose
// blocked two-electron tasks form the irregular workload (internal/chem),
// a simulated HPC platform (internal/cluster), the execution
// models under study (internal/core), and the load-balancing algorithms —
// optimal/weighted semi-matching (internal/semimatching) and multilevel
// hypergraph partitioning (internal/hypergraph). internal/bench
// regenerates every table and figure of the evaluation; see DESIGN.md and
// EXPERIMENTS.md.
package execmodels
