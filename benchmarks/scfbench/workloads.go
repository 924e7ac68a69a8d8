package main

import (
	"math"
	"math/rand"
	"time"

	"execmodels/internal/chem"
)

// The four workloads, in the order of BENCHMARK.json.
const (
	wlRHFSerial = "rhf_serial_sto3g"
	wlUHFSerial = "uhf_serial_631g"
	wlRHFPar2   = "rhf_par2_stealing"
	wlServe     = "serve_closed2"
)

var workloadNames = []string{wlRHFSerial, wlUHFSerial, wlRHFPar2, wlServe}

// The options cmd/hfscf passes by default; the benchmark times the same
// calculation a user of that command gets.
const (
	scfMaxIter   = 50
	scfScreening = 1e-10
	scfBlockSize = 4
)

// sizes fixes how much work a run does. fullSizes is the benchmark;
// tinySizes exists for the package's own fast test and is reachable
// from no flag, so the measured molecules cannot be shrunk by accident.
type sizes struct {
	rhfWaters, uhfWaters int
	// Pinned total energies of the reference clusters in hartree; 0
	// when the molecule is not the pinned one.
	rhfRef, uhfRef float64
	minRepeats     int // floor on timed SCF repeats, whatever the window
	setupRepeats   int // timed set-ups behind an SCF workload's setup_s
	coldStarts     int // timed server starts behind serve_closed2's setup_s
	serveMinJobs   int // floor on served jobs, whatever the window
	serveWarmJobs  int // served and discarded before the window opens
	planWaters     int // cluster behind the planner probes
	planRanks      int
	probeRepeats   int // repeats of each per-layer sweep or micro-probe
	storeProbeReps int // direct serve.Store calls per kind (each fsyncs)
}

var fullSizes = sizes{
	rhfWaters: 4, uhfWaters: 2,
	rhfRef: -299.8503983135, uhfRef: -151.9653353040,
	minRepeats: 5, setupRepeats: 21, coldStarts: 101,
	serveMinJobs: 200, serveWarmJobs: 20,
	planWaters: 8, planRanks: 16,
	probeRepeats: 5, storeProbeReps: 50,
}

var tinySizes = sizes{
	rhfWaters: 1, uhfWaters: 1,
	minRepeats: 1, setupRepeats: 3, coldStarts: 3,
	serveMinJobs: 20, serveWarmJobs: 2,
	planWaters: 2, planRanks: 4,
	probeRepeats: 1, storeProbeReps: 3,
}

// runConfig is one invocation: the seed every input derives from, the
// measuring window, and the sizes.
type runConfig struct {
	seed   int64
	window time.Duration
	sz     sizes
}

// referenceGeometrySeed is the chem.WaterCluster seed of the reference
// clusters whose energies are pinned in fullSizes.
const referenceGeometrySeed = 7

// cluster returns the n-water reference cluster after a proper rotation
// and a translation drawn from seed. Every coordinate the program sees
// depends on the seed; the chemistry does not, so runs at different
// seeds do the same amount of work (same iteration count, surviving
// quartets within 0.3%) and must reach the same energy — plain
// chem.WaterCluster(n, seed) varies scf_s by ±20% between seeds, which
// would drown any regression bound.
func cluster(n int, seed int64) *chem.Molecule {
	return rigidMotion(chem.WaterCluster(n, referenceGeometrySeed), rand.New(rand.NewSource(seed)))
}

func rigidMotion(m *chem.Molecule, rng *rand.Rand) *chem.Molecule {
	a, b, c := 2*math.Pi*rng.Float64(), math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
	ca, sa := math.Cos(a), math.Sin(a)
	cb, sb := math.Cos(b), math.Sin(b)
	cc, sc := math.Cos(c), math.Sin(c)
	// ZYZ Euler rotation.
	r := [3][3]float64{
		{ca*cb*cc - sa*sc, -ca*cb*sc - sa*cc, ca * sb},
		{sa*cb*cc + ca*sc, -sa*cb*sc + ca*cc, sa * sb},
		{-sb * cc, sb * sc, cb},
	}
	shift := chem.Vec3{X: 4*rng.Float64() - 2, Y: 4*rng.Float64() - 2, Z: 4*rng.Float64() - 2}
	out := &chem.Molecule{Name: m.Name, Charge: m.Charge, Atoms: make([]chem.Atom, len(m.Atoms))}
	for i, at := range m.Atoms {
		p := at.Pos
		out.Atoms[i] = chem.Atom{Z: at.Z, Pos: chem.Vec3{
			X: r[0][0]*p.X + r[0][1]*p.Y + r[0][2]*p.Z,
			Y: r[1][0]*p.X + r[1][1]*p.Y + r[1][2]*p.Z,
			Z: r[2][0]*p.X + r[2][1]*p.Y + r[2][2]*p.Z,
		}.Add(shift)}
	}
	return out
}

// scfKind describes one of the three SCF workloads.
type scfKind struct {
	name    string
	waters  int
	basis   string
	uhf     bool
	workers int // 1: the serial builder; 2: core's stealing wall scheduler
	ref     float64
}

func scfKinds(sz sizes) map[string]scfKind {
	return map[string]scfKind{
		wlRHFSerial: {name: wlRHFSerial, waters: sz.rhfWaters, basis: "sto-3g", workers: 1, ref: sz.rhfRef},
		wlUHFSerial: {name: wlUHFSerial, waters: sz.uhfWaters, basis: "6-31g", uhf: true, workers: 1, ref: sz.uhfRef},
		wlRHFPar2:   {name: wlRHFPar2, waters: sz.rhfWaters, basis: "sto-3g", workers: 2, ref: sz.rhfRef},
	}
}
