package chem

import (
	"math"
	"testing"
)

func TestH2Geometry(t *testing.T) {
	m := H2(1.4)
	if len(m.Atoms) != 2 || m.NumElectrons() != 2 {
		t.Fatalf("bad H2: %+v", m)
	}
	if r := m.Atoms[0].Pos.Sub(m.Atoms[1].Pos).Norm(); math.Abs(r-1.4) > 1e-12 {
		t.Fatalf("bond length %v", r)
	}
	if e := m.NuclearRepulsion(); math.Abs(e-1/1.4) > 1e-12 {
		t.Fatalf("nuclear repulsion %v, want %v", e, 1/1.4)
	}
}

func TestWaterGeometry(t *testing.T) {
	w := Water()
	if len(w.Atoms) != 3 {
		t.Fatalf("water has %d atoms", len(w.Atoms))
	}
	if w.NumElectrons() != 10 {
		t.Fatalf("water has %d electrons", w.NumElectrons())
	}
	oh1 := w.Atoms[0].Pos.Sub(w.Atoms[1].Pos).Norm()
	oh2 := w.Atoms[0].Pos.Sub(w.Atoms[2].Pos).Norm()
	want := 0.9578 * angstrom
	if math.Abs(oh1-want) > 1e-9 || math.Abs(oh2-want) > 1e-9 {
		t.Fatalf("O-H lengths %v %v, want %v", oh1, oh2, want)
	}
	// H-O-H angle.
	v1 := w.Atoms[1].Pos.Sub(w.Atoms[0].Pos)
	v2 := w.Atoms[2].Pos.Sub(w.Atoms[0].Pos)
	cos := (v1.X*v2.X + v1.Y*v2.Y + v1.Z*v2.Z) / (v1.Norm() * v2.Norm())
	angle := math.Acos(cos) * 180 / math.Pi
	if math.Abs(angle-104.478) > 1e-6 {
		t.Fatalf("H-O-H angle %v", angle)
	}
}

func TestWaterClusterCounts(t *testing.T) {
	for _, n := range []int{1, 2, 8, 27} {
		m := WaterCluster(n, 42)
		if len(m.Atoms) != 3*n {
			t.Fatalf("WaterCluster(%d) has %d atoms", n, len(m.Atoms))
		}
		var o, h int
		for _, a := range m.Atoms {
			switch a.Z {
			case 8:
				o++
			case 1:
				h++
			}
		}
		if o != n || h != 2*n {
			t.Fatalf("WaterCluster(%d): %d O, %d H", n, o, h)
		}
	}
}

func TestWaterClusterDeterministic(t *testing.T) {
	a := WaterCluster(4, 7)
	b := WaterCluster(4, 7)
	for i := range a.Atoms {
		if a.Atoms[i] != b.Atoms[i] {
			t.Fatal("same seed gave different geometries")
		}
	}
	c := WaterCluster(4, 8)
	same := true
	for i := range a.Atoms {
		if a.Atoms[i] != c.Atoms[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical geometries")
	}
}

func TestWaterClusterNoOverlaps(t *testing.T) {
	m := WaterCluster(8, 3)
	for i := 0; i < len(m.Atoms); i++ {
		for j := i + 1; j < len(m.Atoms); j++ {
			if d := m.Atoms[i].Pos.Sub(m.Atoms[j].Pos).Norm(); d < 0.8 {
				t.Fatalf("atoms %d,%d only %v bohr apart", i, j, d)
			}
		}
	}
}

func TestAlkaneCounts(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		m := Alkane(n)
		var c, h int
		for _, a := range m.Atoms {
			switch a.Z {
			case 6:
				c++
			case 1:
				h++
			}
		}
		if c != n || h != 2*n+2 {
			t.Fatalf("Alkane(%d): C%dH%d", n, c, h)
		}
	}
}

func TestRandomClusterMinDistance(t *testing.T) {
	m := RandomCluster(30, []int{1, 8}, 99)
	if len(m.Atoms) != 30 {
		t.Fatalf("got %d atoms", len(m.Atoms))
	}
	for i := 0; i < len(m.Atoms); i++ {
		for j := i + 1; j < len(m.Atoms); j++ {
			if d := m.Atoms[i].Pos.Sub(m.Atoms[j].Pos).Norm(); d < 1.2 {
				t.Fatalf("atoms %d,%d too close: %v", i, j, d)
			}
		}
	}
}

func TestSymbols(t *testing.T) {
	if AtomicNumber("C") != 6 || AtomicNumber("Zz") != 0 {
		t.Fatal("AtomicNumber")
	}
}

func TestChargedMolecules(t *testing.T) {
	oh := &Molecule{Atoms: []Atom{{Z: 8}, {Z: 1}}, Charge: -1}
	if oh.NumElectrons() != 10 {
		t.Fatalf("OH⁻ has %d electrons", oh.NumElectrons())
	}
	h3o := &Molecule{Atoms: []Atom{{Z: 8}, {Z: 1}, {Z: 1}, {Z: 1}}, Charge: 1}
	if h3o.NumElectrons() != 10 {
		t.Fatalf("H3O⁺ has %d electrons", h3o.NumElectrons())
	}
}

func TestVec3Ops(t *testing.T) {
	v := Vec3{1, 2, 2}
	if v.Norm() != 3 {
		t.Fatalf("Norm = %v", v.Norm())
	}
	if got := v.Scale(2).Sub(v); got != (Vec3{1, 2, 2}) {
		t.Fatalf("Scale/Sub = %v", got)
	}
	if got := v.Add(Vec3{-1, -2, -2}); got != (Vec3{}) {
		t.Fatalf("Add = %v", got)
	}
}
