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

// The R cube has one stride for every order: rStride = boysTableOrder+1,
// the ltot of (dd|dd), so entry (t,u,v) of any cube sits at
// (t·rStride+u)·rStride+v and every Hermite offset of a shell class is a
// constant (hermiteOff). TestBasisLibraryFitsKernelStride holds every
// shipped basis to it.
const rStride = boysTableOrder + 1

// hermiteR holds the Hermite Coulomb integrals R^0_{tuv}(p, PC) needed to
// assemble nuclear-attraction and electron-repulsion integrals, in a cube
// of stride rStride.
type hermiteR struct {
	data []float64
}

func (r *hermiteR) at(t, u, v int) float64 {
	return r.data[(t*rStride+u)*rStride+v]
}

// cubeLen is the length of a cube of stride rStride that holds every
// entry t+u+v <= tmax: the last of them is (tmax,0,0).
func cubeLen(tmax int) int { return tmax*rStride*rStride + 1 }

// hermiteRWork is a reusable workspace for Hermite Coulomb integral
// construction: the Boys-function buffer and two R cubes (recur
// alternates them; orders 0–4 use the first) are retained across calls
// so the steady-state ERI loop performs no heap allocation per primitive
// quartet. The zero value is ready to use and grows on
// demand; grow preallocates for a known maximum order, so a basis of s
// shells holds two entries, not two full cubes of 729.
//
// compute's result aliases the workspace and is invalidated by the next
// compute call, so a workspace must not be shared between goroutines.
type hermiteRWork struct {
	boys [boysTableOrder + 1]float64
	cube []float64 // two cubes of equal length: auxiliary orders n+1 and n
}

// grow preallocates the workspace for orders up to tmax.
func (w *hermiteRWork) grow(tmax int) {
	if n := 2 * cubeLen(tmax); cap(w.cube) < n {
		w.cube = make([]float64, n)
	}
}

// compute fills a cube of stride rStride, at least cubeLen(tmax) long,
// with scale·R^0_{tuv} for all t+u+v <= tmax and returns it; entry
// (t,u,v) sits at (t·rStride+u)·rStride+v. tmax may not exceed
// boysTableOrder.
//
//	R^n_{000}    = (-2p)^n F_n(p·|PC|²)
//	R^n_{t+1,uv} = t R^{n+1}_{t-1,uv} + X_PC R^{n+1}_{tuv}   (same for u, v)
//
// The recurrence consumes one auxiliary order n per unit of t+u+v, and
// order n needs order n+1 only. It is linear in the Boys values, which is
// where scale enters. Orders 1–4, every call of an s/p basis, are written
// out: the intermediate orders live in locals named r<n>_<tuv> and order
// 0 goes straight into the cube. Each entry is the expression recur
// evaluates for it, raising t when t > 0, else u, else v, with the factor
// 1 dropped; the factor 0 stays, since 0·R + X·R is +0 where X·R alone
// is −0. TestHermiteRStraightLineMatchesLoop holds them to recur bit for
// bit. Orders 5–8, reached by d shells only, take recur's loop. Every
// entry read (here, and by callers within t+u+v <= tmax) is written first,
// so stale data from an earlier call never leaks and nothing is zeroed.
func (w *hermiteRWork) compute(tmax int, p float64, pc Vec3, scale float64) []float64 {
	if tmax > boysTableOrder {
		panic("chem: Hermite order above the R cube's stride")
	}
	w.grow(tmax)
	f := &w.boys
	Boys(tmax, p*pc.Norm2(), f[:tmax+1])
	for n := range tmax + 1 {
		f[n] *= scale
		scale *= -2 * p
	}
	x, y, z := pc.X, pc.Y, pc.Z
	switch tmax {
	case 0:
		w.cube[0] = f[0]
		return w.cube[:1]
	case 1:
		c := (*[1*rStride*rStride + 1]float64)(w.cube)
		c[0] = f[0]
		c[1] = z * f[1]
		c[9] = y * f[1]
		c[81] = x * f[1]
		return c[:]
	case 2:
		c := (*[2*rStride*rStride + 1]float64)(w.cube)
		r1_000 := f[1]
		r1_001 := z * f[2]
		r1_010 := y * f[2]
		r1_100 := x * f[2]
		c[0] = f[0]
		c[1] = 0*r1_000 + z*r1_000
		c[2] = r1_000 + z*r1_001
		c[9] = 0*r1_000 + y*r1_000
		c[10] = 0*r1_001 + y*r1_001
		c[18] = r1_000 + y*r1_010
		c[81] = 0*r1_000 + x*r1_000
		c[82] = 0*r1_001 + x*r1_001
		c[90] = 0*r1_010 + x*r1_010
		c[162] = r1_000 + x*r1_100
		return c[:]
	case 3:
		c := (*[3*rStride*rStride + 1]float64)(w.cube)
		r2_000 := f[2]
		r2_001 := z * f[3]
		r2_010 := y * f[3]
		r2_100 := x * f[3]
		r1_000 := f[1]
		r1_001 := 0*r2_000 + z*r2_000
		r1_002 := r2_000 + z*r2_001
		r1_010 := 0*r2_000 + y*r2_000
		r1_011 := 0*r2_001 + y*r2_001
		r1_020 := r2_000 + y*r2_010
		r1_100 := 0*r2_000 + x*r2_000
		r1_101 := 0*r2_001 + x*r2_001
		r1_110 := 0*r2_010 + x*r2_010
		r1_200 := r2_000 + x*r2_100
		c[0] = f[0]
		c[1] = 0*r1_000 + z*r1_000
		c[2] = r1_000 + z*r1_001
		c[3] = 2*r1_001 + z*r1_002
		c[9] = 0*r1_000 + y*r1_000
		c[10] = 0*r1_001 + y*r1_001
		c[11] = 0*r1_002 + y*r1_002
		c[18] = r1_000 + y*r1_010
		c[19] = r1_001 + y*r1_011
		c[27] = 2*r1_010 + y*r1_020
		c[81] = 0*r1_000 + x*r1_000
		c[82] = 0*r1_001 + x*r1_001
		c[83] = 0*r1_002 + x*r1_002
		c[90] = 0*r1_010 + x*r1_010
		c[91] = 0*r1_011 + x*r1_011
		c[99] = 0*r1_020 + x*r1_020
		c[162] = r1_000 + x*r1_100
		c[163] = r1_001 + x*r1_101
		c[171] = r1_010 + x*r1_110
		c[243] = 2*r1_100 + x*r1_200
		return c[:]
	case 4:
		c := (*[4*rStride*rStride + 1]float64)(w.cube)
		r3_000 := f[3]
		r3_001 := z * f[4]
		r3_010 := y * f[4]
		r3_100 := x * f[4]
		r2_000 := f[2]
		r2_001 := 0*r3_000 + z*r3_000
		r2_002 := r3_000 + z*r3_001
		r2_010 := 0*r3_000 + y*r3_000
		r2_011 := 0*r3_001 + y*r3_001
		r2_020 := r3_000 + y*r3_010
		r2_100 := 0*r3_000 + x*r3_000
		r2_101 := 0*r3_001 + x*r3_001
		r2_110 := 0*r3_010 + x*r3_010
		r2_200 := r3_000 + x*r3_100
		r1_000 := f[1]
		r1_001 := 0*r2_000 + z*r2_000
		r1_002 := r2_000 + z*r2_001
		r1_003 := 2*r2_001 + z*r2_002
		r1_010 := 0*r2_000 + y*r2_000
		r1_011 := 0*r2_001 + y*r2_001
		r1_012 := 0*r2_002 + y*r2_002
		r1_020 := r2_000 + y*r2_010
		r1_021 := r2_001 + y*r2_011
		r1_030 := 2*r2_010 + y*r2_020
		r1_100 := 0*r2_000 + x*r2_000
		r1_101 := 0*r2_001 + x*r2_001
		r1_102 := 0*r2_002 + x*r2_002
		r1_110 := 0*r2_010 + x*r2_010
		r1_111 := 0*r2_011 + x*r2_011
		r1_120 := 0*r2_020 + x*r2_020
		r1_200 := r2_000 + x*r2_100
		r1_201 := r2_001 + x*r2_101
		r1_210 := r2_010 + x*r2_110
		r1_300 := 2*r2_100 + x*r2_200
		c[0] = f[0]
		c[1] = 0*r1_000 + z*r1_000
		c[2] = r1_000 + z*r1_001
		c[3] = 2*r1_001 + z*r1_002
		c[4] = 3*r1_002 + z*r1_003
		c[9] = 0*r1_000 + y*r1_000
		c[10] = 0*r1_001 + y*r1_001
		c[11] = 0*r1_002 + y*r1_002
		c[12] = 0*r1_003 + y*r1_003
		c[18] = r1_000 + y*r1_010
		c[19] = r1_001 + y*r1_011
		c[20] = r1_002 + y*r1_012
		c[27] = 2*r1_010 + y*r1_020
		c[28] = 2*r1_011 + y*r1_021
		c[36] = 3*r1_020 + y*r1_030
		c[81] = 0*r1_000 + x*r1_000
		c[82] = 0*r1_001 + x*r1_001
		c[83] = 0*r1_002 + x*r1_002
		c[84] = 0*r1_003 + x*r1_003
		c[90] = 0*r1_010 + x*r1_010
		c[91] = 0*r1_011 + x*r1_011
		c[92] = 0*r1_012 + x*r1_012
		c[99] = 0*r1_020 + x*r1_020
		c[100] = 0*r1_021 + x*r1_021
		c[108] = 0*r1_030 + x*r1_030
		c[162] = r1_000 + x*r1_100
		c[163] = r1_001 + x*r1_101
		c[164] = r1_002 + x*r1_102
		c[171] = r1_010 + x*r1_110
		c[172] = r1_011 + x*r1_111
		c[180] = r1_020 + x*r1_120
		c[243] = 2*r1_100 + x*r1_200
		c[244] = 2*r1_101 + x*r1_201
		c[252] = 2*r1_110 + x*r1_210
		c[324] = 3*r1_200 + x*r1_300
		return c[:]
	}
	return w.recur(tmax, pc)
}

// recur fills the cube from the scaled Boys values compute left in w.boys
// by the recurrence as a loop, for any order 1 <= tmax <= boysTableOrder.
// Two cubes alternate from n = tmax-1 down to 0.
func (w *hermiteRWork) recur(tmax int, pc Vec3) []float64 {
	const n1, n2 = rStride, rStride * rStride
	f := w.boys[:tmax+1]
	m := len(w.cube) / 2
	src, dst := w.cube[:m], w.cube[m:]
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
