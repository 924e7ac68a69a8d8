// Package linalg provides the dense linear algebra needed by the
// self-consistent-field (SCF) driver: row-major dense matrices, a few
// BLAS-like kernels, a cyclic Jacobi symmetric eigensolver, and the
// symmetric-orthogonalization helpers used to turn a Fock matrix into a
// density matrix.
//
// The package is deliberately small and dependency-free; it is a substrate
// for the computational-chemistry kernel, not a general linear algebra
// library.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero-initialized r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom returns an r×c matrix backed by a copy of data.
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), r, c))
	}
	m := NewMatrix(r, c)
	copy(m.Data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return NewMatrixFrom(m.Rows, m.Cols, m.Data)
}

// Zero sets every element to zero, retaining the backing storage.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CopyFrom copies the contents of src into m. Dimensions must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom dimension mismatch")
	}
	copy(m.Data, src.Data)
}

// Scale multiplies every element by s and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddScaled accumulates s*b into m element-wise and returns m.
func (m *Matrix) AddScaled(s float64, b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: AddScaled dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] += s * b.Data[i]
	}
	return m
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// MaxAbsDiff returns max_ij |m_ij - b_ij|.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: MaxAbsDiff dimension mismatch")
	}
	var d float64
	for i := range m.Data {
		if v := math.Abs(m.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// FrobeniusNorm returns sqrt(sum m_ij^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Symmetrize replaces m with (m + mᵀ)/2. The matrix must be square.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize of non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (m.Data[i*n+j] + m.Data[j*n+i])
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
}

// String renders the matrix with 4 significant digits, for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .4e ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
