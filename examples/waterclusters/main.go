// Water clusters: run a real restricted Hartree–Fock calculation on a
// small water cluster, building the Fock matrix in parallel under each
// wall-clock execution model, and verify that all models converge to the
// same energy while differing in balance and time.
//
//	go run ./examples/waterclusters [-n waters] [-workers w] [-basis sto-3g]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"execmodels/internal/chem"
	"execmodels/internal/core"
)

func main() {
	n := flag.Int("n", 2, "number of water molecules")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
	basis := flag.String("basis", "sto-3g", "basis set (sto-3g or 6-31g)")
	flag.Parse()

	mol := chem.WaterCluster(*n, 7)
	bs, err := chem.NewBasis(*basis, mol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s / %s: %d atoms, %d shells, %d basis functions, %d electrons\n",
		mol.Name, bs.Name, len(mol.Atoms), len(bs.Shells), bs.NBF, mol.NumElectrons())

	w := chem.BuildFockWorkload(bs, 1e-10, 4)
	fmt.Printf("fock workload: %d tasks, task-cost max/mean = %.2f\n\n",
		len(w.Tasks), w.CostImbalance())

	for _, mode := range []string{"static", "dynamic", "stealing"} {
		builder, err := core.SchedulerFockBuilder(mode, *workers, core.WallOptions{Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := chem.RunSCF(mol, bs, chem.SCFOptions{}, builder)
		if err != nil {
			log.Fatal(err)
		}
		status := "converged"
		if !res.Converged {
			status = "NOT converged"
		}
		fmt.Printf("%-9s E = %.8f hartree  (%s in %d iterations, %v, %d workers)\n",
			mode, res.Energy, status, res.Iterations,
			time.Since(start).Round(time.Millisecond), *workers)
	}
	fmt.Println("\nall three execution models must agree on the energy to ~1e-9;")
	fmt.Println("they differ in load balance and wall time, which is the paper's subject.")
}
