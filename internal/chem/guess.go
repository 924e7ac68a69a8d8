package chem

import "execmodels/internal/linalg"

// covalentRadius holds single-bond covalent radii in bohr (Cordero et
// al., Dalton Trans. 2008, 2832), one for every element in symbols.
var covalentRadius = map[int]float64{
	1: 0.31 * angstrom, 2: 0.28 * angstrom, 6: 0.76 * angstrom,
	7: 0.71 * angstrom, 8: 0.66 * angstrom, 9: 0.57 * angstrom,
}

// fragments partitions mol's atoms into the connected components of its
// bond graph, where atoms i and j are bonded when they are closer than
// 1.2 (rᵢ + rⱼ). Fragments come in the order of their first atom, and
// each lists its atoms in ascending order.
func fragments(mol *Molecule) [][]int {
	parent := make([]int, len(mol.Atoms))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i, a := range mol.Atoms {
		for j := i + 1; j < len(mol.Atoms); j++ {
			b := mol.Atoms[j]
			if a.Pos.Sub(b.Pos).Norm() < 1.2*(covalentRadius[a.Z]+covalentRadius[b.Z]) {
				parent[find(j)] = find(i)
			}
		}
	}
	var frags [][]int
	slot := map[int]int{} // root → index in frags
	for i := range mol.Atoms {
		r := find(i)
		if _, ok := slot[r]; !ok {
			slot[r] = len(frags)
			frags = append(frags, nil)
		}
		frags[slot[r]] = append(frags[slot[r]], i)
	}
	return frags
}

// fragmentMolecules returns mol's fragments as molecules of their own,
// with the parent index of each fragment atom, or nil when a fragment
// guess does not apply: mol is charged, is one fragment or has a
// fragment of odd electron count.
func fragmentMolecules(mol *Molecule) ([]*Molecule, [][]int) {
	frags := fragments(mol)
	if mol.Charge != 0 || len(frags) < 2 {
		return nil, nil
	}
	mols := make([]*Molecule, len(frags))
	for k, f := range frags {
		mols[k] = &Molecule{Name: mol.Name}
		for _, a := range f {
			mols[k].Atoms = append(mols[k].Atoms, mol.Atoms[a])
		}
		if mols[k].NumElectrons()%2 != 0 {
			return nil, nil
		}
	}
	return mols, frags
}

// fragmentGuess returns the block-diagonal density of mol's fragments,
// each converged by its own serial RHF run in bs's basis under opts
// without OnIteration or Resume. It returns nil, and runs no fragment
// SCF, when opts resumes a run or fragmentMolecules refuses mol; it
// returns nil too when a fragment run errors or does not converge. A
// fragment is one fragment, so the runs it makes do not recurse.
func fragmentGuess(mol *Molecule, bs *BasisSet, opts SCFOptions) *linalg.Matrix {
	if opts.Resume != nil {
		return nil
	}
	mols, frags := fragmentMolecules(mol)
	if mols == nil {
		return nil
	}

	// NewBasis lays out an atom's shells contiguously, atom by atom, so a
	// fragment's functions are its atoms' functions in the parent, in order.
	atomFuncs := make([][]int, len(mol.Atoms))
	for _, sh := range bs.Shells {
		for f := range sh.NumFuncs() {
			atomFuncs[sh.Atom] = append(atomFuncs[sh.Atom], sh.Start+f)
		}
	}
	opts.OnIteration, opts.Resume = nil, nil
	d := linalg.NewMatrix(bs.NBF, bs.NBF)
	for k, m := range mols {
		fbs, err := NewBasis(bs.Name, m)
		if err != nil {
			return nil
		}
		res, err := RunSCF(m, fbs, opts, nil)
		if err != nil || !res.Converged {
			return nil
		}
		var idx []int
		for _, a := range frags[k] {
			idx = append(idx, atomFuncs[a]...)
		}
		if len(idx) != fbs.NBF {
			return nil
		}
		for i, p := range idx {
			for j, q := range idx {
				d.Set(p, q, res.D.At(i, j))
			}
		}
	}
	return d
}
