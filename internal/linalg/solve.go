package linalg

import "math"

// Solve solves the dense linear system a·x = b by Gaussian elimination
// with partial pivoting, without modifying its inputs. It reports
// ok=false for (near-)singular systems.
func Solve(a *Matrix, b []float64) (x []float64, ok bool) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("linalg: Solve dimension mismatch")
	}
	m := append([]float64(nil), a.Data...)
	rhs := append([]float64(nil), b...)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		best, bestAbs := col, math.Abs(m[piv[col]*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[piv[r]*n+col]); v > bestAbs {
				best, bestAbs = r, v
			}
		}
		if bestAbs < 1e-14 {
			return nil, false
		}
		piv[col], piv[best] = piv[best], piv[col]
		pr := piv[col]
		for r := col + 1; r < n; r++ {
			rr := piv[r]
			factor := m[rr*n+col] / m[pr*n+col]
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[rr*n+c] -= factor * m[pr*n+c]
			}
			rhs[rr] -= factor * rhs[pr]
		}
	}
	x = make([]float64, n)
	for col := n - 1; col >= 0; col-- {
		pr := piv[col]
		s := rhs[pr]
		for c := col + 1; c < n; c++ {
			s -= m[pr*n+c] * x[c]
		}
		x[col] = s / m[pr*n+col]
	}
	return x, true
}
