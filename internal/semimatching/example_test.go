package semimatching_test

import (
	"fmt"

	"execmodels/internal/semimatching"
)

// Weighted tasks: LPT places 5 and 4 apart, then the refinement pass
// recovers the optimal split that plain LPT misses.
func ExampleWeightedSemiMatch() {
	b := semimatching.Complete(5, 2)
	w := []float64{5, 4, 3, 2, 2}
	lpt := semimatching.LPT(b, w)
	refined := semimatching.WeightedSemiMatch(b, w)
	fmt.Println("LPT makespan:", lpt.Makespan())
	fmt.Println("refined makespan:", refined.Makespan())
	// Output:
	// LPT makespan: 9
	// refined makespan: 8
}
