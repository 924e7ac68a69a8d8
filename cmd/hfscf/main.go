// hfscf runs a restricted or unrestricted Hartree–Fock calculation end to
// end, with the Fock build executed serially or on goroutines under any
// balancing policy of the scheduler seam (core.WallSchedulerNames).
//
// Usage:
//
//	hfscf -molecule water -basis sto-3g
//	hfscf -molecule waters:8 -sched stealing -workers 8
//	hfscf -molecule alkane:6 -basis 6-31g -sched semimatching
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hfscf: ")
	var (
		molecule = flag.String("molecule", "water", "water | h2 | waters:N | alkane:N | random:N | xyz:FILE")
		basis    = flag.String("basis", "sto-3g", "basis set: sto-3g, 6-31g or 6-31g*")
		sched    = flag.String("sched", "serial", "fock build policy: serial | "+strings.Join(core.WallSchedulerNames(), " | "))
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "workers for parallel policies")
		maxIter  = flag.Int("maxiter", 50, "maximum SCF iterations")
		screen   = flag.Float64("screen", 1e-10, "Schwarz screening threshold")
		block    = flag.Int("block", 4, "bra-pair block size for the Fock workload")
		orbitals = flag.Bool("orbitals", false, "print orbital energies")
		seed     = flag.Int64("seed", 7, "seed for generated geometries and the work-stealing scheduler")
		dynblock = flag.Int("dynblock", 1, "tasks fetched per shared-counter op in -sched dynamic")
		diis     = flag.Bool("diis", true, "DIIS convergence acceleration (RHF; -uhf runs damped)")
		uhf      = flag.Bool("uhf", false, "unrestricted Hartree-Fock")
		mult     = flag.Int("multiplicity", 0, "spin multiplicity 2S+1 for -uhf (0 = lowest)")
		charge   = flag.Int("charge", 0, "net molecular charge")
	)
	flag.Parse()
	if err := checkSizes(*maxIter, *block, *dynblock, *screen); err != nil {
		log.Fatal(err)
	}
	if err := checkSpin(*uhf, *mult); err != nil {
		log.Fatal(err)
	}

	mol, err := parseMolecule(*molecule, *seed)
	if err != nil {
		log.Fatal(err)
	}
	mol.Charge = *charge
	bs, err := chem.NewBasis(*basis, mol)
	if err != nil {
		log.Fatal(err)
	}
	builder, uhfBuilder, err := fockBuilders(*sched, *workers, core.WallOptions{Seed: *seed, Block: *dynblock})
	if err != nil {
		log.Fatal(err)
	}

	fockMode := *sched
	if *sched != "serial" {
		fockMode = fmt.Sprintf("%s (%d workers)", *sched, *workers)
	}

	fmt.Printf("molecule  %s (%d atoms, %d electrons)\n", mol.Name, len(mol.Atoms), mol.NumElectrons())
	fmt.Printf("basis     %s (%d shells, %d functions)\n", bs.Name, len(bs.Shells), bs.NBF)
	fmt.Printf("fock mode %s\n", fockMode)

	start := time.Now()
	var (
		res *chem.SCFResult // under -uhf, the fields the two result types share
		u   *chem.UHFResult
	)
	if *uhf {
		u, err = chem.RunUHF(mol, bs, chem.UHFOptions{
			Multiplicity: *mult,
			MaxIter:      *maxIter,
			Screening:    *screen,
			BlockSize:    *block,
			Builder:      uhfBuilder,
		})
		if err == nil {
			res = &chem.SCFResult{
				Energy: u.Energy, Electronic: u.Electronic, Nuclear: u.Nuclear,
				Iterations: u.Iterations, Converged: u.Converged, Workload: u.Workload,
			}
		}
	} else {
		res, err = chem.RunSCF(mol, bs, chem.SCFOptions{
			MaxIter:   *maxIter,
			Screening: *screen,
			BlockSize: *block,
			UseDIIS:   *diis,
		}, builder)
	}
	if err != nil {
		log.Fatal(err)
	}
	report(res, u, time.Since(start), *orbitals)
}

// report prints the result of a run — the same lines for both spin
// treatments, then the spin-specific ones (u is nil for a restricted run)
// — and exits non-zero unless the SCF converged.
func report(res *chem.SCFResult, u *chem.UHFResult, elapsed time.Duration, orbitals bool) {
	fmt.Printf("\ntasks     %d (cost max/mean %.2f)\n",
		len(res.Workload.Tasks), res.Workload.CostImbalance())
	printQuartetStats(res.Workload)
	if !res.Converged {
		fmt.Printf("WARNING   not converged after %d iterations\n", res.Iterations)
	} else {
		fmt.Printf("converged in %d iterations (%v)\n", res.Iterations, elapsed.Round(time.Millisecond))
	}
	fmt.Printf("E(nuc)    %+.8f hartree\n", res.Nuclear)
	fmt.Printf("E(elec)   %+.8f hartree\n", res.Electronic)
	fmt.Printf("E(total)  %+.8f hartree\n", res.Energy)
	type orbitalSet struct {
		label    string
		energies []float64
		nocc     int
	}
	sets := []orbitalSet{{"", res.OrbitalE, res.NOcc}}
	if u != nil {
		fmt.Printf("occupation %dα / %dβ\n", u.NAlpha, u.NBeta)
		// A closed shell's ⟨S²⟩ is zero up to rounding of either sign.
		fmt.Printf("<S²>      %.4f\n", math.Max(u.S2, 0))
		sets = []orbitalSet{{"α ", u.OrbitalEA, u.NAlpha}, {"β ", u.OrbitalEB, u.NBeta}}
	}
	if orbitals {
		for _, set := range sets {
			fmt.Printf("\n%sorbital energies (hartree):\n", set.label)
			for i, e := range set.energies {
				occ := " "
				if i < set.nocc {
					occ = "*"
				}
				fmt.Printf("  %3d %s %+.6f\n", i+1, occ, e)
			}
		}
	}
	if !res.Converged {
		os.Exit(1)
	}
}

// checkSizes refuses a non-positive -maxiter, -block, -dynblock or
// -screen: the library reads zero as its default and refuses a negative
// value (core.WallOptions reads any block below 1 as 1), so the flags,
// whose defaults are spelled out, take neither.
func checkSizes(maxIter, block, dynblock int, screen float64) error {
	switch {
	case maxIter < 1:
		return fmt.Errorf("-maxiter %d: need at least 1", maxIter)
	case block < 1:
		return fmt.Errorf("-block %d: need at least 1", block)
	case dynblock < 1:
		return fmt.Errorf("-dynblock %d: need at least 1", dynblock)
	case !(screen > 0):
		return fmt.Errorf("-screen %g: need a positive threshold", screen)
	}
	return nil
}

// checkSpin refuses -multiplicity without -uhf: the restricted loop runs
// a closed-shell singlet and would otherwise ignore the flag.
func checkSpin(uhf bool, mult int) error {
	if mult != 0 && !uhf {
		return fmt.Errorf("-multiplicity %d: needs -uhf (RHF is a closed-shell singlet)", mult)
	}
	return nil
}

// fockBuilders maps -sched onto the restricted and unrestricted Fock
// builders: nil builders (chem's serial sweep) for "serial", otherwise
// the named policy on the wall-clock backend. Each builder owns its own
// scheduler state; a run uses one of the two.
func fockBuilders(sched string, workers int, opt core.WallOptions) (chem.FockBuilder, chem.UHFFockBuilder, error) {
	if sched == "serial" {
		return nil, nil, nil
	}
	rhf, err := core.SchedulerFockBuilder(sched, workers, opt)
	if err != nil {
		return nil, nil, err
	}
	uhf, err := core.SchedulerUHFFockBuilder(sched, workers, opt)
	return rhf, uhf, err
}

// printQuartetStats reports how much work the 8-fold symmetry folding and
// Schwarz screening removed before any task reached an executor, and how
// many primitive quartets of the survivors the kernel evaluates.
func printQuartetStats(w *chem.FockWorkload) {
	st := w.Stats()
	fold := float64(st.NaiveQuartets) / float64(st.UniqueQuartets)
	fmt.Printf("quartets  %d unique of %d ordered (%.2fx symmetry fold), %d surviving screening, %d of their %d primitive quartets evaluated\n",
		st.UniqueQuartets, st.NaiveQuartets, fold, st.Surviving, st.PrimSurviving, st.PrimQuartets)
}

func parseMolecule(spec string, seed int64) (*chem.Molecule, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	n := 0
	switch name {
	case "waters", "alkane", "random":
		if hasArg {
			var err error
			n, err = strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad molecule count in %q", spec)
			}
		}
	}
	switch name {
	case "water":
		return chem.Water(), nil
	case "h2":
		return chem.H2(1.4), nil
	case "waters":
		if !hasArg {
			return nil, fmt.Errorf("waters needs a count, e.g. waters:4")
		}
		return chem.WaterCluster(n, seed), nil
	case "alkane":
		if !hasArg {
			return nil, fmt.Errorf("alkane needs a count, e.g. alkane:6")
		}
		return chem.Alkane(n), nil
	case "random":
		if !hasArg {
			return nil, fmt.Errorf("random needs a count, e.g. random:20")
		}
		return chem.RandomCluster(n, []int{1, 8}, seed), nil
	case "xyz":
		if arg == "" {
			return nil, fmt.Errorf("xyz needs a path, e.g. xyz:geom.xyz")
		}
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return chem.ParseXYZ(f)
	default:
		return nil, fmt.Errorf("unknown molecule %q", spec)
	}
}
