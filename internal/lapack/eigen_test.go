package lapack

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/codon"
	"repro/internal/mat"
)

func randSym(rng *rand.Rand, n int) *mat.Matrix {
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// reconstruct builds X·diag(λ)·Xᵀ.
func reconstruct(eig *Eigen) *mat.Matrix {
	n := len(eig.Values)
	y := eig.Vectors.Clone()
	y.ScaleCols(eig.Values)
	out := mat.New(n, n)
	blas.Dgemm(false, true, 1, y, eig.Vectors, 0, out)
	return out
}

func checkDecomposition(t *testing.T, a *mat.Matrix, eig *Eigen, tol float64) {
	t.Helper()
	n := a.Rows
	// Reconstruction: X Λ Xᵀ == A.
	rec := reconstruct(eig)
	if !rec.EqualApprox(a, tol) {
		t.Fatalf("reconstruction error %g exceeds %g",
			maxDiff(rec, a), tol)
	}
	// Orthonormality: Xᵀ X == I.
	xtx := mat.New(n, n)
	blas.Dgemm(true, false, 1, eig.Vectors, eig.Vectors, 0, xtx)
	if !xtx.EqualApprox(mat.Identity(n), tol) {
		t.Fatalf("eigenvectors not orthonormal (err %g)", maxDiff(xtx, mat.Identity(n)))
	}
	// Ascending order.
	for i := 1; i < n; i++ {
		if eig.Values[i] < eig.Values[i-1] {
			t.Fatalf("eigenvalues not sorted: %v", eig.Values)
		}
	}
}

func maxDiff(a, b *mat.Matrix) float64 {
	d := 0.0
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if v := math.Abs(a.At(i, j) - b.At(i, j)); v > d {
				d = v
			}
		}
	}
	return d
}

func TestDsyevKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := mat.NewFromSlice(2, 2, []float64{2, 1, 1, 2})
	eig, err := Dsyev(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-1) > 1e-12 || math.Abs(eig.Values[1]-3) > 1e-12 {
		t.Fatalf("eigenvalues %v, want [1 3]", eig.Values)
	}
	checkDecomposition(t, a, eig, 1e-12)
}

func TestDsyevDiagonal(t *testing.T) {
	a := mat.Diag([]float64{5, -2, 7, 0})
	eig, err := Dsyev(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 0, 5, 7}
	for i, w := range want {
		if math.Abs(eig.Values[i]-w) > 1e-13 {
			t.Fatalf("eigenvalues %v, want %v", eig.Values, want)
		}
	}
	checkDecomposition(t, a, eig, 1e-13)
}

func TestDsyevIdentity(t *testing.T) {
	a := mat.Identity(6)
	eig, err := Dsyev(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range eig.Values {
		if math.Abs(v-1) > 1e-14 {
			t.Fatalf("identity eigenvalues %v", eig.Values)
		}
	}
	checkDecomposition(t, a, eig, 1e-13)
}

func TestDsyevDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randSym(rng, 8)
	saved := a.Clone()
	if _, err := Dsyev(a); err != nil {
		t.Fatal(err)
	}
	if !a.EqualApprox(saved, 0) {
		t.Fatal("Dsyev modified its input")
	}
}

func TestDsyevEmptyAndOne(t *testing.T) {
	eig, err := Dsyev(mat.New(0, 0))
	if err != nil || len(eig.Values) != 0 {
		t.Fatal("0×0 should succeed trivially")
	}
	eig, err = Dsyev(mat.NewFromSlice(1, 1, []float64{-4.5}))
	if err != nil {
		t.Fatal(err)
	}
	if eig.Values[0] != -4.5 || math.Abs(math.Abs(eig.Vectors.At(0, 0))-1) > 1e-15 {
		t.Fatalf("1×1 decomposition wrong: %v %v", eig.Values, eig.Vectors)
	}
}

func TestDsyevRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 5, 10, 20, 61} {
		a := randSym(rng, n)
		eig, err := Dsyev(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkDecomposition(t, a, eig, 1e-9*float64(n))
	}
}

// Repeated eigenvalues (degenerate spectrum) must still give an
// orthonormal basis and exact reconstruction.
func TestDsyevDegenerateSpectrum(t *testing.T) {
	// Projection-like matrix with eigenvalues {0,0,3,3}.
	rng := rand.New(rand.NewSource(12))
	q := randSym(rng, 4)
	eigQ, err := Dsyev(q)
	if err != nil {
		t.Fatal(err)
	}
	x := eigQ.Vectors
	d := []float64{0, 0, 3, 3}
	y := x.Clone()
	y.ScaleCols(d)
	a := mat.New(4, 4)
	blas.Dgemm(false, true, 1, y, x, 0, a)
	a.Symmetrize()

	eig, err := Dsyev(a)
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, a, eig, 1e-10)
	for i, w := range d {
		if math.Abs(eig.Values[i]-w) > 1e-10 {
			t.Fatalf("degenerate eigenvalues %v, want %v", eig.Values, d)
		}
	}
}

// Trace and Frobenius norm are spectral invariants.
func TestDsyevSpectralInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randSym(rng, n)
		eig, err := Dsyev(a)
		if err != nil {
			return false
		}
		trace, sumLam := 0.0, 0.0
		frob2, sumLam2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sumLam += eig.Values[i]
			sumLam2 += eig.Values[i] * eig.Values[i]
			for j := 0; j < n; j++ {
				frob2 += a.At(i, j) * a.At(i, j)
			}
		}
		return math.Abs(trace-sumLam) < 1e-9 && math.Abs(frob2-sumLam2) < 1e-7*(1+frob2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTred2TridiagonalizesCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 9
	a := randSym(rng, n)
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	Tred2(z, d, e)

	// Rebuild T from d, e and check Q·T·Qᵀ == A.
	tm := mat.New(n, n)
	for i := 0; i < n; i++ {
		tm.Set(i, i, d[i])
		if i > 0 {
			tm.Set(i, i-1, e[i])
			tm.Set(i-1, i, e[i])
		}
	}
	qt := mat.New(n, n)
	blas.Dgemm(false, false, 1, z, tm, 0, qt)
	qtqt := mat.New(n, n)
	blas.Dgemm(false, true, 1, qt, z, 0, qtqt)
	if !qtqt.EqualApprox(a, 1e-10) {
		t.Fatalf("Q·T·Qᵀ != A (err %g)", maxDiff(qtqt, a))
	}
}

func TestJacobiMatchesDsyev(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 4, 8, 16} {
		a := randSym(rng, n)
		e1, err := Dsyev(a)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := Jacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(e1.Values[i]-e2.Values[i]) > 1e-9*(1+math.Abs(e1.Values[i])) {
				t.Fatalf("n=%d eigenvalue %d: QL %g vs Jacobi %g",
					n, i, e1.Values[i], e2.Values[i])
			}
		}
		checkDecomposition(t, a, e2, 1e-9*float64(n))
	}
}

func TestJacobiDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randSym(rng, 6)
	saved := a.Clone()
	if _, err := Jacobi(a); err != nil {
		t.Fatal(err)
	}
	if !a.EqualApprox(saved, 0) {
		t.Fatal("Jacobi modified its input")
	}
}

// The matrices SlimCodeML decomposes are similarity-symmetrized rate
// matrices; they have one zero eigenvalue (the stationary direction)
// and the rest negative. Build a small reversible generator the same
// way and check that structure survives the solver.
func TestDsyevReversibleGeneratorStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 12
	// Random symmetric exchangeabilities, random stationary dist.
	s := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64() + 0.1
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = rng.Float64() + 0.05
	}
	mat.Normalize(pi)
	// Q = S·Π with rows summing to zero; A = Π^{1/2} S Π^{1/2} with the
	// matching diagonal.
	sqrtPi := make([]float64, n)
	for i, p := range pi {
		sqrtPi[i] = math.Sqrt(p)
	}
	a := mat.New(n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				rowSum += s.At(i, j) * pi[j]
			}
		}
		for j := 0; j < n; j++ {
			if i == j {
				a.Set(i, i, -rowSum)
			} else {
				a.Set(i, j, sqrtPi[i]*s.At(i, j)*sqrtPi[j])
			}
		}
	}
	a.Symmetrize()
	eig, err := Dsyev(a)
	if err != nil {
		t.Fatal(err)
	}
	last := eig.Values[n-1]
	if math.Abs(last) > 1e-10 {
		t.Fatalf("largest eigenvalue should be ~0, got %g", last)
	}
	for _, v := range eig.Values[:n-1] {
		if v > 1e-10 {
			t.Fatalf("found positive eigenvalue %g in generator spectrum", v)
		}
	}
	checkDecomposition(t, a, eig, 1e-10)
}

// The oracle: EISPACK tred2 + tql2 written through the bounds-checked
// mat.At/Set accessors, in textbook order, with the rotations applied
// to columns of z and a separate sort pass. Dsyev must reproduce its
// output bit for bit: the fast solver may change only how memory is
// walked, never an arithmetic expression or the order of a sum.

func refDsyev(a *mat.Matrix) (*Eigen, error) {
	n := a.Rows
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(z, d, e)
	if err := refTql2(d, e, z); err != nil {
		return nil, err
	}
	refSortEigen(d, z)
	return &Eigen{Values: d, Vectors: z}, nil
}

func refTred2(z *mat.Matrix, d, e []float64) {
	n := z.Rows
	if n == 0 {
		return
	}
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					v := z.At(i, k) / scale
					z.Set(i, k, v)
					h += v * v
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Set(j, k, z.At(j, k)-(f*e[k]+g*z.At(i, k)))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				g := 0.0
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Set(k, j, z.At(k, j)-g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

func refTql2(d, e []float64, z *mat.Matrix) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	const maxIter = 50
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= machEps*dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > maxIter {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				for k := 0; k < n; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, s*z.At(k, i)+c*f)
					z.Set(k, i, c*z.At(k, i)-s*f)
				}
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

func refSortEigen(d []float64, z *mat.Matrix) {
	n := len(d)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d[idx[a]] < d[idx[b]] })
	sorted := make([]float64, n)
	perm := mat.New(n, n)
	for newCol, oldCol := range idx {
		sorted[newCol] = d[oldCol]
		for r := 0; r < n; r++ {
			perm.Set(r, newCol, z.At(r, oldCol))
		}
	}
	copy(d, sorted)
	z.CopyFrom(perm)
}

// sameBits reports the first position where got and want differ in
// any bit, or "" when they are identical (same error, same values,
// same eigenvector entries).
func sameBits(got, want *Eigen, gotErr, wantErr error) string {
	if gotErr != wantErr {
		return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	if diff := sameSliceBits(got.Values, want.Values); diff != "" {
		return "eigenvalue " + diff
	}
	g, w := got.Vectors, want.Vectors
	if g.Rows != w.Rows || g.Cols != w.Cols {
		return fmt.Sprintf("vectors %d×%d, oracle %d×%d", g.Rows, g.Cols, w.Rows, w.Cols)
	}
	for i := 0; i < w.Rows; i++ {
		if diff := sameSliceBits(g.Row(i), w.Row(i)); diff != "" {
			return fmt.Sprintf("eigenvector row %d, column %s", i, diff)
		}
	}
	return ""
}

func sameSliceBits(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, oracle %d", len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return fmt.Sprintf("%d: %v (%#016x), oracle %v (%#016x)",
				j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
	return ""
}

func checkAgainstReference(t *testing.T, name string, a *mat.Matrix) {
	t.Helper()
	want, wantErr := refDsyev(a)
	got, gotErr := Dsyev(a)
	if diff := sameBits(got, want, gotErr, wantErr); diff != "" {
		t.Fatalf("%s (n=%d): %s", name, a.Rows, diff)
	}
}

// codonA builds the symmetrized codon matrix Π^{1/2} S Π^{1/2} the way
// expm.Decompose hands it to the solver.
func codonA(t testing.TB, gc *codon.GeneticCode, kappa, omega float64, seed int64) *mat.Matrix {
	t.Helper()
	n := gc.NumStates()
	pi := make([]float64, n)
	if seed == 0 {
		copy(pi, codon.UniformFrequencies(gc))
	} else {
		rng := rand.New(rand.NewSource(seed))
		for i := range pi {
			pi[i] = 0.05 + rng.Float64()
		}
		mat.Normalize(pi)
	}
	r, err := codon.NewRate(gc, kappa, omega, pi)
	if err != nil {
		t.Fatal(err)
	}
	sqrtPi := make([]float64, n)
	for i, p := range r.Pi {
		sqrtPi[i] = math.Sqrt(p)
	}
	a := r.S.Clone()
	a.ScaleRows(sqrtPi)
	a.ScaleCols(sqrtPi)
	a.Symmetrize()
	return a
}

// Every bit of Dsyev's output — the eigenvalues, every eigenvector
// entry and the convergence outcome — equals the textbook oracle's.
func TestDsyevMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 70; n++ {
		checkAgainstReference(t, "random normal", randSym(rng, n))
	}
	// Wide dynamic range: entries spread over 2^±40.
	for _, n := range []int{3, 17, 61} {
		a := randSym(rng, n)
		for i := range a.Data {
			a.Data[i] = 0
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64() * math.Ldexp(1, rng.Intn(81)-40)
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		checkAgainstReference(t, "wide range", a)
	}
	// Zero rows and columns send Tred2 down its scale == 0 branch.
	for _, n := range []int{2, 3, 8, 40} {
		for _, zero := range [][]int{{0}, {n - 1}, {n / 2}, {0, 1}, {n - 2, n - 1}} {
			a := randSym(rng, n)
			for _, k := range zero {
				for j := 0; j < n; j++ {
					a.Set(k, j, 0)
					a.Set(j, k, 0)
				}
			}
			checkAgainstReference(t, fmt.Sprintf("zero rows %v", zero), a)
		}
		checkAgainstReference(t, "all zero", mat.New(n, n))
	}
	// Diagonal, identity and degenerate spectra.
	for _, n := range []int{1, 2, 6, 61} {
		checkAgainstReference(t, "identity", mat.Identity(n))
		diag := make([]float64, n)
		for i := range diag {
			diag[i] = float64((i*7)%5) - 2
		}
		checkAgainstReference(t, "diagonal", mat.Diag(diag))
		checkAgainstReference(t, "degenerate", degenerate(rng, n))
	}
	// Already tridiagonal.
	for _, n := range []int{4, 33} {
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, rng.NormFloat64())
			if i > 0 {
				v := rng.NormFloat64()
				a.Set(i, i-1, v)
				a.Set(i-1, i, v)
			}
		}
		checkAgainstReference(t, "tridiagonal", a)
	}
	// Non-finite entries: the outcome (error or not) must match too.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		a := randSym(rng, 7)
		a.Set(2, 5, v)
		a.Set(5, 2, v)
		checkAgainstReference(t, fmt.Sprintf("entry %v", v), a)
	}
	// The codon matrices the engines decompose.
	for _, gc := range []*codon.GeneticCode{codon.Universal, codon.VertebrateMt} {
		for _, kappa := range []float64{0.5, 2, 8.3} {
			for _, omega := range []float64{0.001, 0.05, 1, 3.7} {
				for _, seed := range []int64{0, 5} {
					name := fmt.Sprintf("codon %s κ=%g ω=%g π seed %d", gc.Name(), kappa, omega, seed)
					checkAgainstReference(t, name, codonA(t, gc, kappa, omega, seed))
				}
			}
		}
	}
}

// degenerate builds Q·diag(λ)·Qᵀ with every eigenvalue repeated.
func degenerate(rng *rand.Rand, n int) *mat.Matrix {
	eig, err := refDsyev(randSym(rng, n))
	if err != nil {
		panic(err)
	}
	lam := make([]float64, n)
	for i := range lam {
		lam[i] = float64(i / 3)
	}
	y := eig.Vectors.Clone()
	y.ScaleCols(lam)
	a := mat.New(n, n)
	blas.Dgemm(false, true, 1, y, eig.Vectors, 0, a)
	a.Symmetrize()
	return a
}

// The exported phases honour z.Stride: run on a view inside a wider
// backing array, they write exactly the oracle's bits into the view
// and leave every element outside it alone.
func TestTred2Tql2StridedView(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n, pad = 13, 5
	src := randSym(rng, n)
	backing := func() *mat.Matrix {
		m := mat.New(n+2, n+pad)
		for i := range m.Data {
			m.Data[i] = -7.25
		}
		m.SubMatrix(1, 2, n, n).CopyFrom(src)
		return m
	}
	wantM, gotM := backing(), backing()
	want, got := wantM.SubMatrix(1, 2, n, n), gotM.SubMatrix(1, 2, n, n)
	if got.Stride <= got.Cols {
		t.Fatalf("view stride %d not wider than %d columns", got.Stride, got.Cols)
	}
	wd, we := make([]float64, n), make([]float64, n)
	gd, ge := make([]float64, n), make([]float64, n)

	refTred2(want, wd, we)
	Tred2(got, gd, ge)
	if diff := sameSliceBits(gotM.Data, wantM.Data); diff != "" {
		t.Fatalf("Tred2 backing array at %s", diff)
	}
	if diff := sameSliceBits(append(gd, ge...), append(wd, we...)); diff != "" {
		t.Fatalf("Tred2 d‖e at %s", diff)
	}

	wantErr := refTql2(wd, we, want)
	if err := Tql2(gd, ge, got); err != wantErr {
		t.Fatalf("Tql2 error %v, oracle %v", err, wantErr)
	}
	if diff := sameSliceBits(gotM.Data, wantM.Data); diff != "" {
		t.Fatalf("Tql2 backing array at %s", diff)
	}
	if diff := sameSliceBits(append(gd, ge...), append(wd, we...)); diff != "" {
		t.Fatalf("Tql2 d‖e at %s", diff)
	}
}

// FuzzDsyevMatchesReference decodes a symmetric matrix of order ≤ 64
// from the input and requires Dsyev's bits to equal the oracle's.
// Byte 0 picks n; bit 0 of byte 1 picks the entry encoding: raw IEEE
// bits (NaN, Inf, subnormals and huge magnitudes included) or a small
// integer over 64. The remaining bytes are read cyclically.
func FuzzDsyevMatchesReference(f *testing.F) {
	f.Add([]byte{61, 1, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0xc0})
	f.Add([]byte{64, 1, 0, 0, 1, 0})
	f.Add([]byte{2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]) % 65
		raw := data[1]&1 == 0
		rest := data[2:]
		at := 0
		next := func() float64 {
			if len(rest) == 0 {
				return 0
			}
			var buf [8]byte
			w := 2
			if raw {
				w = 8
			}
			for b := 0; b < w; b++ {
				buf[b] = rest[at%len(rest)]
				at++
			}
			if raw {
				return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			}
			return float64(int16(binary.LittleEndian.Uint16(buf[:]))) / 64
		}
		a := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := next()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		want, wantErr := refDsyev(a)
		got, gotErr := Dsyev(a)
		if diff := sameBits(got, want, gotErr, wantErr); diff != "" {
			t.Fatalf("n=%d: %s", n, diff)
		}
	})
}
