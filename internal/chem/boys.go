package chem

import "math"

// Geometry of the Boys lookup table. Node i sits at x = i·boysStep and
// holds F_0..F_{boysRow-1}; Boys expands every requested order about the
// nearest node, so the top order boysTableOrder reads boysTaylor-1 orders
// above itself. The step is a power of two so the node index, the node
// abscissa and the Taylor step are all computed exactly.
const (
	boysTableOrder = 8  // highest mmax the table serves: ltot of (dd|dd)
	boysTaylor     = 7  // Taylor terms per order
	boysSwitch     = 35 // x from which the asymptotic branch takes over
	boysNoExp      = 64 // x from which that branch drops e^{-x}
	boysStep       = 1.0 / 16
	boysRow        = boysTableOrder + boysTaylor
)

var boysTable = func() []float64 {
	nodes := int(boysSwitch/boysStep) + 1
	tab := make([]float64, nodes*boysRow)
	for i := 0; i < nodes; i++ {
		boysReference(boysRow-1, float64(i)*boysStep, tab[i*boysRow:(i+1)*boysRow])
	}
	return tab
}()

// Boys fills out[0..mmax] with the Boys function values
//
//	F_m(x) = ∫₀¹ t^{2m} exp(-x t²) dt,  m = 0..mmax,
//
// which are the radial kernels of all Coulomb-type Gaussian integrals.
//
// For x < 35 and mmax <= 8 — every order the shipped basis sets reach —
// each order is a seven-term Taylor expansion about the nearest table node,
//
//	F_m(x₀-δ) = Σ_k F_{m+k}(x₀) δ^k / k!,   |δ| <= 1/32,
//
// whose truncation error is below (1/32)⁷/7! ≈ 6e-15 relative (F_{m+7} <=
// F_m). No series, recursion or exponential runs. From x = 35 the
// asymptotic F_0 seeds the upward recursion, as in boysReference; orders
// above the table go to boysReference itself.
func Boys(mmax int, x float64, out []float64) {
	if len(out) < mmax+1 {
		panic("chem: Boys output slice too short")
	}
	switch {
	case mmax > boysTableOrder:
		boysReference(mmax, x, out)
	case x < boysSwitch:
		i := int(x*(1/boysStep) + 0.5)
		d := float64(i)*boysStep - x
		c2 := d * d * (1.0 / 2)
		c3 := c2 * d * (1.0 / 3)
		c4 := c3 * d * (1.0 / 4)
		c5 := c4 * d * (1.0 / 5)
		c6 := c5 * d * (1.0 / 6)
		row := boysTable[i*boysRow : (i+1)*boysRow]
		for m := 0; m <= mmax; m++ {
			f := row[m : m+boysTaylor]
			// Smallest terms first, so the result carries one rounding of F_m.
			out[m] = f[0] + (d*f[1] + (c2*f[2] + (c3*f[3] + (c4*f[4] + (c5*f[5] + c6*f[6])))))
		}
	default:
		out[0] = 0.5 * math.Sqrt(math.Pi/x)
		if mmax == 0 {
			return
		}
		// The e^{-x} term is 2e-8 of F_8 at x = 35 and below 1e-18 of
		// every F_m, m <= 8, from x = 64: only there may it go.
		var ex float64
		if x < boysNoExp {
			ex = math.Exp(-x)
		}
		inv := 1 / (2 * x)
		for m := 0; m < mmax; m++ {
			out[m+1] = (float64(2*m+1)*out[m] - ex) * inv
		}
	}
}

// boysReference is the table-free evaluation: it generates the table,
// serves orders above it and is the reference Boys is tested against.
//
// For small x the top order is computed by its (rapidly converging) power
// series and lower orders follow from the numerically stable downward
// recursion F_m = (2x·F_{m+1} + e^{-x}) / (2m+1). For large x the
// asymptotic form of F_0 seeds the upward recursion, which is stable there
// because e^{-x} is negligible.
func boysReference(mmax int, x float64, out []float64) {
	switch {
	case x < 1e-14:
		for m := 0; m <= mmax; m++ {
			out[m] = 1 / float64(2*m+1)
		}
	case x < boysSwitch:
		out[mmax] = boysSeries(mmax, x)
		ex := math.Exp(-x)
		for m := mmax - 1; m >= 0; m-- {
			out[m] = (2*x*out[m+1] + ex) / float64(2*m+1)
		}
	default:
		out[0] = 0.5 * math.Sqrt(math.Pi/x)
		ex := math.Exp(-x) // ~0 but keep for x just above the cutoff
		for m := 0; m < mmax; m++ {
			out[m+1] = (float64(2*m+1)*out[m] - ex) / (2 * x)
		}
	}
}

// boysSeries evaluates F_m(x) by the series
//
//	F_m(x) = e^{-x} Σ_{i≥0} (2m-1)!! (2x)^i / (2m+2i+1)!!
//
// which converges quickly for the x range it is used on (x < 35).
func boysSeries(m int, x float64) float64 {
	term := 1 / float64(2*m+1)
	sum := term
	for i := 1; i < 200; i++ {
		term *= 2 * x / float64(2*m+2*i+1)
		sum += term
		if term < 1e-17*sum {
			break
		}
	}
	return sum * math.Exp(-x)
}
