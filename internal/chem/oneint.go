package chem

import (
	"math"

	"execmodels/internal/linalg"
)

// Overlap returns the overlap matrix S over all basis functions.
func Overlap(bs *BasisSet) *linalg.Matrix {
	s := linalg.NewMatrix(bs.NBF, bs.NBF)
	forShellPairs(bs, func(a, b *Shell) {
		blk := overlapBlock(a, b)
		scatterBlock(s, a, b, blk)
	})
	return s
}

// Kinetic returns the kinetic-energy matrix T.
func Kinetic(bs *BasisSet) *linalg.Matrix {
	t := linalg.NewMatrix(bs.NBF, bs.NBF)
	forShellPairs(bs, func(a, b *Shell) {
		blk := kineticBlock(a, b)
		scatterBlock(t, a, b, blk)
	})
	return t
}

// NuclearAttraction returns the nuclear-attraction matrix V for molecule
// mol (already negative: V_{μν} = -Σ_C Z_C ⟨μ| 1/r_C |ν⟩).
func NuclearAttraction(bs *BasisSet, mol *Molecule) *linalg.Matrix {
	v := linalg.NewMatrix(bs.NBF, bs.NBF)
	var rw hermiteRWork
	forShellPairs(bs, func(a, b *Shell) {
		blk := nuclearBlock(a, b, mol, &rw)
		scatterBlock(v, a, b, blk)
	})
	return v
}

// CoreHamiltonian returns H = T + V.
func CoreHamiltonian(bs *BasisSet, mol *Molecule) *linalg.Matrix {
	h := Kinetic(bs)
	h.AddScaled(1, NuclearAttraction(bs, mol))
	return h
}

// forShellPairs invokes f on each ordered shell pair (a, b) with a <= b;
// scatterBlock mirrors the block to keep the matrix symmetric.
func forShellPairs(bs *BasisSet, f func(a, b *Shell)) {
	for i := range bs.Shells {
		for j := i; j < len(bs.Shells); j++ {
			f(&bs.Shells[i], &bs.Shells[j])
		}
	}
}

// applyComponentNorms2 scales a bra×ket block by the per-component
// normalization factors of both shells (a no-op for pure s/p shells).
func applyComponentNorms2(blk []float64, a, b *Shell) {
	if a.L < 2 && b.L < 2 {
		return
	}
	na := ComponentNorms(a.L)
	nb := ComponentNorms(b.L)
	for fa, va := range na {
		for fb, vb := range nb {
			blk[fa*len(nb)+fb] *= va * vb
		}
	}
}

// scatterBlock writes the na×nb shell block into the full matrix at the
// shells' offsets, mirroring into the lower triangle.
func scatterBlock(m *linalg.Matrix, a, b *Shell, blk []float64) {
	na, nb := a.NumFuncs(), b.NumFuncs()
	for fa := 0; fa < na; fa++ {
		for fb := 0; fb < nb; fb++ {
			v := blk[fa*nb+fb]
			m.Set(a.Start+fa, b.Start+fb, v)
			m.Set(b.Start+fb, a.Start+fa, v)
		}
	}
}

// overlapBlock computes the contracted overlap block ⟨a|b⟩.
func overlapBlock(a, b *Shell) []float64 {
	na, nb := a.NumFuncs(), b.NumFuncs()
	blk := make([]float64, na*nb)
	ca, cb := Components(a.L), Components(b.L)
	ab := a.Center.Sub(b.Center)
	ex, ey, ez := makeHermiteE(a.L, b.L), makeHermiteE(a.L, b.L), makeHermiteE(a.L, b.L)
	for pi, ea := range a.Exps {
		for pj, eb := range b.Exps {
			coef := a.Coefs[pi] * b.Coefs[pj]
			p := ea + eb
			pref := coef * math.Pow(math.Pi/p, 1.5)
			ex.fill(ea, eb, ab.X)
			ey.fill(ea, eb, ab.Y)
			ez.fill(ea, eb, ab.Z)
			for fa, compA := range ca {
				for fb, compB := range cb {
					blk[fa*nb+fb] += pref *
						ex.at(compA.Lx, compB.Lx, 0) *
						ey.at(compA.Ly, compB.Ly, 0) *
						ez.at(compA.Lz, compB.Lz, 0)
				}
			}
		}
	}
	applyComponentNorms2(blk, a, b)
	return blk
}

// kineticBlock computes the contracted kinetic-energy block ⟨a| -∇²/2 |b⟩
// via the 1-D relation
//
//	T_ij = -2b² S_{i,j+2} + b(2j+1) S_{ij} - j(j-1)/2 · S_{i,j-2}
//
// combined as T = T_x S_y S_z + S_x T_y S_z + S_x S_y T_z.
func kineticBlock(a, b *Shell) []float64 {
	na, nb := a.NumFuncs(), b.NumFuncs()
	blk := make([]float64, na*nb)
	ca, cb := Components(a.L), Components(b.L)
	ab := a.Center.Sub(b.Center)
	// Need j up to b.L+2 in each dimension.
	ex, ey, ez := makeHermiteE(a.L, b.L+2), makeHermiteE(a.L, b.L+2), makeHermiteE(a.L, b.L+2)
	for pi, ea := range a.Exps {
		for pj, eb := range b.Exps {
			coef := a.Coefs[pi] * b.Coefs[pj]
			p := ea + eb
			pref := coef * math.Pow(math.Pi/p, 1.5)
			ex.fill(ea, eb, ab.X)
			ey.fill(ea, eb, ab.Y)
			ez.fill(ea, eb, ab.Z)
			s1d := func(e *hermiteE, i, j int) float64 {
				if j < 0 {
					return 0
				}
				return e.at(i, j, 0)
			}
			t1d := func(e *hermiteE, i, j int) float64 {
				v := -2 * eb * eb * s1d(e, i, j+2)
				v += eb * float64(2*j+1) * s1d(e, i, j)
				v -= 0.5 * float64(j*(j-1)) * s1d(e, i, j-2)
				return v
			}
			for fa, A := range ca {
				for fb, B := range cb {
					sx, sy, sz := s1d(ex, A.Lx, B.Lx), s1d(ey, A.Ly, B.Ly), s1d(ez, A.Lz, B.Lz)
					tx, ty, tz := t1d(ex, A.Lx, B.Lx), t1d(ey, A.Ly, B.Ly), t1d(ez, A.Lz, B.Lz)
					blk[fa*nb+fb] += pref * (tx*sy*sz + sx*ty*sz + sx*sy*tz)
				}
			}
		}
	}
	applyComponentNorms2(blk, a, b)
	return blk
}

// nuclearBlock computes the contracted nuclear-attraction block
// -Σ_C Z_C ⟨a| 1/r_C |b⟩ using Hermite Coulomb integrals built in rw.
func nuclearBlock(a, b *Shell, mol *Molecule, rw *hermiteRWork) []float64 {
	na, nb := a.NumFuncs(), b.NumFuncs()
	blk := make([]float64, na*nb)
	ca, cb := Components(a.L), Components(b.L)
	ab := a.Center.Sub(b.Center)
	ltot := a.L + b.L
	ex, ey, ez := makeHermiteE(a.L, b.L), makeHermiteE(a.L, b.L), makeHermiteE(a.L, b.L)
	for pi, ea := range a.Exps {
		for pj, eb := range b.Exps {
			coef := a.Coefs[pi] * b.Coefs[pj]
			p := ea + eb
			P := a.Center.Scale(ea / p).Add(b.Center.Scale(eb / p))
			pref := coef * 2 * math.Pi / p
			ex.fill(ea, eb, ab.X)
			ey.fill(ea, eb, ab.Y)
			ez.fill(ea, eb, ab.Z)
			for _, atom := range mol.Atoms {
				// The cube carries -Z_C·pref, so the terms below add up bare.
				r := hermiteR{tmax: ltot, data: rw.compute(ltot, p, P.Sub(atom.Pos), -float64(atom.Z)*pref)}
				for fa, A := range ca {
					for fb, B := range cb {
						var sum float64
						for t := 0; t <= A.Lx+B.Lx; t++ {
							extv := ex.at(A.Lx, B.Lx, t)
							if extv == 0 {
								continue
							}
							for u := 0; u <= A.Ly+B.Ly; u++ {
								eytv := ey.at(A.Ly, B.Ly, u)
								if eytv == 0 {
									continue
								}
								for v := 0; v <= A.Lz+B.Lz; v++ {
									eztv := ez.at(A.Lz, B.Lz, v)
									if eztv == 0 {
										continue
									}
									sum += extv * eytv * eztv * r.at(t, u, v)
								}
							}
						}
						blk[fa*nb+fb] += sum
					}
				}
			}
		}
	}
	applyComponentNorms2(blk, a, b)
	return blk
}
