package linalg

// MatMul returns a*b as a new matrix.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("linalg: MatMul dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Cols)
	Gemm(1, a, b, 0, c)
	return c
}

// Gemm computes c = alpha*a*b + beta*c in place. It uses an ikj loop order
// so the inner loop streams contiguously through b and c.
func Gemm(alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("linalg: Gemm dimension mismatch")
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	if beta == 0 {
		c.Zero()
	} else if beta != 1 {
		c.Scale(beta)
	}
	for i := 0; i < n; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*m : (i+1)*m]
		for p := 0; p < k; p++ {
			av := alpha * arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*m : (p+1)*m]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// TripleProduct returns aᵀ*b*a, the congruence transform used to move
// matrices between the atomic-orbital and orthogonal bases.
func TripleProduct(a, b *Matrix) *Matrix {
	return MatMul(a.Transpose(), MatMul(b, a))
}
