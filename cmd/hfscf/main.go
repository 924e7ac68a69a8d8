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
	"execmodels/internal/linalg"
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
		mp2      = flag.Bool("mp2", false, "add the MP2 correlation energy (small systems only)")
		props    = flag.Bool("properties", false, "print dipole moment and Mulliken charges")
		uhf      = flag.Bool("uhf", false, "unrestricted Hartree-Fock")
		mult     = flag.Int("multiplicity", 0, "spin multiplicity 2S+1 for -uhf (0 = lowest)")
		charge   = flag.Int("charge", 0, "net molecular charge")
		nosym    = flag.Bool("nosym", false, "disable 8-fold symmetry folding and Schwarz screening: every Fock build runs the naive N^4 quadruple loop (ground-truth escape hatch; serial RHF only, ~8x+ slower)")
	)
	flag.Parse()
	if err := checkSizes(*maxIter, *block, *screen); err != nil {
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
	if *nosym && *sched != "serial" {
		log.Fatal("-nosym is the serial restricted ground-truth path; it cannot combine with -sched")
	}
	if *uhf && (*nosym || *mp2 || *props) {
		log.Fatal("-nosym, -mp2 and -properties are restricted closed-shell code; they cannot combine with -uhf")
	}
	builder, uhfBuilder, err := fockBuilders(*sched, *workers, core.WallOptions{Seed: *seed, Block: *dynblock})
	if err != nil {
		log.Fatal(err)
	}

	fockMode := *sched
	if *sched != "serial" {
		fockMode = fmt.Sprintf("%s (%d workers)", *sched, *workers)
	}
	if *nosym {
		fockMode = "serial (naive N^4, no symmetry/screening)"
		builder = func(fw *chem.FockWorkload, h, d *linalg.Matrix) *linalg.Matrix {
			return chem.BuildFockNaive(fw.Basis, h, d)
		}
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
	report(mol, bs, res, u, time.Since(start), *nosym, *orbitals, *props, *mp2)
}

// report prints the result of a run — the same lines for both spin
// treatments, then the spin-specific ones (u is nil for a restricted run)
// — and exits non-zero unless the SCF converged.
func report(mol *chem.Molecule, bs *chem.BasisSet, res *chem.SCFResult, u *chem.UHFResult, elapsed time.Duration, nosym, orbitals, props, mp2 bool) {
	fmt.Printf("\ntasks     %d (cost max/mean %.2f)\n",
		len(res.Workload.Tasks), res.Workload.CostImbalance())
	printQuartetStats(res.Workload, nosym)
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
	if props && res.Converged {
		mu := chem.DipoleMoment(mol, bs, res.D)
		fmt.Printf("\ndipole    (%+.4f, %+.4f, %+.4f) a.u., |mu| = %.4f a.u. = %.4f D\n",
			mu.X, mu.Y, mu.Z, mu.Norm(), mu.Norm()*2.541746)
		s := chem.Overlap(bs)
		q := chem.MullikenCharges(mol, bs, res.D, s)
		fmt.Println("mulliken charges:")
		for i, a := range mol.Atoms {
			fmt.Printf("  %-3s %+.4f\n", a.Symbol(), q[i])
		}
	}
	if mp2 && res.Converged {
		e2, err := chem.MP2Energy(bs, res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("E(MP2)    %+.8f hartree\n", e2)
		fmt.Printf("E(tot+2)  %+.8f hartree\n", res.Energy+e2)
	}
	if !res.Converged {
		os.Exit(1)
	}
}

// checkSizes refuses a non-positive -maxiter, -block or -screen: the
// library reads zero as its default and refuses a negative value, so the
// flags, whose defaults are spelled out, take neither.
func checkSizes(maxIter, block int, screen float64) error {
	switch {
	case maxIter < 1:
		return fmt.Errorf("-maxiter %d: need at least 1", maxIter)
	case block < 1:
		return fmt.Errorf("-block %d: need at least 1", block)
	case !(screen > 0):
		return fmt.Errorf("-screen %g: need a positive threshold", screen)
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
func printQuartetStats(w *chem.FockWorkload, nosym bool) {
	st := w.Stats()
	if nosym {
		fmt.Printf("quartets  %d ordered (naive loop computes all of them)\n", st.NaiveQuartets)
		return
	}
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
