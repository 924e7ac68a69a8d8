package chem

import "math"

// hermiteE holds the McMurchie–Davidson Hermite expansion coefficients
// E_t^{ij} for one Cartesian dimension of one primitive pair: the overlap
// distribution x_A^i x_B^j exp(-a r_A²) exp(-b r_B²) expanded in Hermite
// Gaussians Λ_t centred at P.
//
// Indexing: e.at(i, j, t), valid for 0 <= i <= imax, 0 <= j <= jmax,
// 0 <= t <= i+j (coefficients outside that band are zero).
type hermiteE struct {
	imax, jmax int
	data       []float64 // [(imax+1) x (jmax+1) x (imax+jmax+1)]
}

func (e *hermiteE) at(i, j, t int) float64 {
	if t < 0 || t > i+j {
		return 0
	}
	return e.data[(i*(e.jmax+1)+j)*(e.imax+e.jmax+1)+t]
}

func (e *hermiteE) set(i, j, t int, v float64) {
	e.data[(i*(e.jmax+1)+j)*(e.imax+e.jmax+1)+t] = v
}

// makeHermiteE allocates the table for angular momenta up to imax, jmax;
// fill gives it values.
func makeHermiteE(imax, jmax int) *hermiteE {
	return &hermiteE{
		imax: imax,
		jmax: jmax,
		data: make([]float64, (imax+1)*(jmax+1)*(imax+jmax+1)),
	}
}

// newHermiteE builds the E table for exponents a, b and center separation
// ab = A - B along one dimension, for angular momenta up to imax, jmax.
func newHermiteE(imax, jmax int, a, b, ab float64) *hermiteE {
	e := makeHermiteE(imax, jmax)
	e.fill(a, b, ab)
	return e
}

// fill (re)computes the table in place, so one table serves every
// primitive pair of a shell pair. Every in-band entry is written before it
// is read and at never reads outside the band, so nothing of the previous
// contents survives.
//
// Recurrences (Helgaker, Jørgensen & Olsen, ch. 9):
//
//	E_t^{00}    = exp(-μ ab²)
//	E_t^{i+1,j} = E_{t-1}^{ij}/(2p) + X_PA E_t^{ij} + (t+1) E_{t+1}^{ij}
//	E_t^{i,j+1} = E_{t-1}^{ij}/(2p) + X_PB E_t^{ij} + (t+1) E_{t+1}^{ij}
func (e *hermiteE) fill(a, b, ab float64) {
	imax, jmax := e.imax, e.jmax
	p := a + b
	mu := a * b / p
	xpa := -b / p * ab // P - A
	xpb := a / p * ab  // P - B

	e.set(0, 0, 0, math.Exp(-mu*ab*ab))
	// Build up i at j = 0.
	for i := 0; i < imax; i++ {
		for t := 0; t <= i+1; t++ {
			v := e.at(i, 0, t-1)/(2*p) + xpa*e.at(i, 0, t) + float64(t+1)*e.at(i, 0, t+1)
			e.set(i+1, 0, t, v)
		}
	}
	// Build up j for every i.
	for i := 0; i <= imax; i++ {
		for j := 0; j < jmax; j++ {
			for t := 0; t <= i+j+1; t++ {
				v := e.at(i, j, t-1)/(2*p) + xpb*e.at(i, j, t) + float64(t+1)*e.at(i, j, t+1)
				e.set(i, j+1, t, v)
			}
		}
	}
}

// hermiteR holds the Hermite Coulomb integrals R^0_{tuv}(p, PC) needed to
// assemble nuclear-attraction and electron-repulsion integrals.
type hermiteR struct {
	tmax int
	data []float64 // [(tmax+1)^3], index (t*(tmax+1)+u)*(tmax+1)+v
}

func (r *hermiteR) at(t, u, v int) float64 {
	n := r.tmax + 1
	return r.data[(t*n+u)*n+v]
}

// hermiteRWork is a reusable workspace for Hermite Coulomb integral
// construction: the Boys-function buffer and two R cubes are retained
// across calls so the steady-state ERI loop performs no heap allocation
// per primitive quartet. The zero value is ready to use and grows on
// demand; grow preallocates for a known maximum order.
//
// compute's result aliases the workspace and is invalidated by the next
// compute call, so a workspace must not be shared between goroutines.
type hermiteRWork struct {
	boys []float64
	cube []float64 // two (tmax+1)³ cubes: auxiliary orders n+1 and n
}

// grow preallocates the workspace for orders up to tmax.
func (w *hermiteRWork) grow(tmax int) {
	n1 := tmax + 1
	if cap(w.boys) < n1 {
		w.boys = make([]float64, n1) //lint:ignore allocfree cold start: Boys workspace grows to the basis's max total angular momentum once, then is reused
	}
	if cap(w.cube) < 2*n1*n1*n1 {
		w.cube = make([]float64, 2*n1*n1*n1) //lint:ignore allocfree cold start: the two R-recursion cubes are sized by the max total angular momentum once, then reused
	}
}

// newHermiteR computes R^0_{tuv} for all t+u+v <= tmax, with Gaussian
// exponent p and separation pc = P - C. A fresh workspace per call: the
// result owns its data. Hot paths use hermiteRWork.compute directly to
// amortize the allocations away.
func newHermiteR(tmax int, p float64, pc Vec3) *hermiteR {
	var w hermiteRWork
	return &hermiteR{tmax: tmax, data: w.compute(tmax, p, pc, 1)}
}

// compute fills a cube of stride tmax+1 with scale·R^0_{tuv} for all
// t+u+v <= tmax and returns it; entry (t,u,v) sits at (t·(tmax+1)+u)·(tmax+1)+v.
//
//	R^n_{000}    = (-2p)^n F_n(p·|PC|²)
//	R^n_{t+1,uv} = t R^{n+1}_{t-1,uv} + X_PC R^{n+1}_{tuv}   (same for u, v)
//
// The recurrence consumes one auxiliary order n per unit of t+u+v, and
// order n needs order n+1 only, so two cubes alternate from n = tmax down
// to 0. It is linear in the Boys values, which is where scale enters.
// Every entry read (here, and by callers within t+u+v <= tmax) is written
// first, so stale data from an earlier call never leaks and nothing is
// zeroed.
func (w *hermiteRWork) compute(tmax int, p float64, pc Vec3, scale float64) []float64 {
	n1 := tmax + 1
	n2 := n1 * n1
	n3 := n2 * n1
	w.grow(tmax)
	f := w.boys[:n1]
	Boys(tmax, p*pc.Norm2(), f)
	for n := range f {
		f[n] *= scale
		scale *= -2 * p
	}
	src, dst := w.cube[:n3], w.cube[n3:2*n3]
	if tmax == 0 {
		dst[0] = f[0]
		return dst
	}
	// Order tmax-1 is four entries; the loop takes over from t+u+v <= 2.
	dst[0], dst[1], dst[n1], dst[n2] = f[tmax-1], pc.Z*f[tmax], pc.Y*f[tmax], pc.X*f[tmax]
	for n := tmax - 2; n >= 0; n-- {
		src, dst = dst, src
		l := tmax - n // dst holds order n for t+u+v <= l, src order n+1 for <= l-1
		dst[0] = f[n]
		// For an index of 1 the lower neighbour's factor is 0 and max
		// points it at a valid finite entry instead of out of the cube.
		for v := 1; v <= l; v++ {
			dst[v] = float64(v-1)*src[max(v-2, 0)] + pc.Z*src[v-1]
		}
		for u := 1; u <= l; u++ {
			o, o1, o2, fu := u*n1, (u-1)*n1, max(u-2, 0)*n1, float64(u-1)
			for v := 0; v <= l-u; v++ {
				dst[o+v] = fu*src[o2+v] + pc.Y*src[o1+v]
			}
		}
		for t := 1; t <= l; t++ {
			ft := float64(t - 1)
			for u := 0; u <= l-t; u++ {
				o, o1, o2 := t*n2+u*n1, (t-1)*n2+u*n1, max(t-2, 0)*n2+u*n1
				for v := 0; v <= l-t-u; v++ {
					dst[o+v] = ft*src[o2+v] + pc.X*src[o1+v]
				}
			}
		}
	}
	return dst
}
