package lapack

import (
	"math"

	"repro/internal/blas"
	"repro/internal/core"
)

// The Bunch–Kaufman family has one implementation keyed by herm, the way
// blas.Symv and blas.Hemv share symHemv. herm false is the symmetric
// factorization A = U·D·Uᵀ (complex symmetric for complex element types);
// herm true is the Hermitian one, A = U·D·Uᴴ with a real diagonal. The
// arithmetic branches on herm, never on the element type: for real types
// both variants are the same factorization mathematically, but the
// Hermitian 2×2 pivot algebra runs in float64 intermediates, so float32
// results differ in the last bits and each variant keeps its own.

// bkAlpha is the Bunch–Kaufman pivot threshold (1+sqrt(17))/8.
var bkAlpha = (1 + math.Sqrt(17)) / 8

// bkOps holds the pieces of the Bunch–Kaufman algebra that depend on herm.
type bkOps[T core.Scalar] struct{ herm bool }

// cj conjugates v in the Hermitian variant.
func (f bkOps[T]) cj(v T) T {
	if f.herm {
		return core.Conj(v)
	}
	return v
}

// dg is the stored form of a diagonal entry: its real part in the
// Hermitian variant.
func (f bkOps[T]) dg(v T) T {
	if f.herm {
		return core.FromFloat[T](core.Re(v))
	}
	return v
}

// dabs is the pivot-size measure of a diagonal entry.
func (f bkOps[T]) dabs(v T) float64 {
	if f.herm {
		return math.Abs(core.Re(v))
	}
	return core.Abs1(v)
}

// trans is the transpose that maps a column of the factor to its row.
func (f bkOps[T]) trans() Trans {
	if f.herm {
		return ConjTrans
	}
	return TransT
}

// scalInv scales the n-vector x by 1/d.
func (f bkOps[T]) scalInv(n int, d T, x []T, incX int) {
	if f.herm {
		blas.ScalReal(n, 1/core.Re(d), x, incX)
	} else {
		blas.Scal(n, core.Div(core.FromFloat[T](1), d), x, incX)
	}
}

// pivot1 applies the 1×1 pivot d to the unblocked kernel's trailing block:
// a22 -= x·d⁻¹·xᵀ (xᴴ when Hermitian) on its uplo triangle, then x /= d.
func (f bkOps[T]) pivot1(uplo Uplo, n int, d T, x, a22 []T, lda int) {
	if f.herm {
		r1 := 1 / core.Re(d)
		blas.Her(uplo, n, -r1, x, 1, a22, lda)
		blas.ScalReal(n, r1, x, 1)
		return
	}
	r1 := core.Div(core.FromFloat[T](1), d)
	blas.Syr(uplo, n, -r1, x, 1, a22, lda)
	blas.Scal(n, r1, x, 1)
}

// bkPair is a 2×2 pivot block of the unblocked kernel in rows and columns
// q = k and its partner p, prepared to turn a row's entries (xp, xq) in
// those columns into its entries (wp, wq) of the factor L or U.
type bkPair[T core.Scalar] struct {
	herm          bool
	c, dp, dq, od T
}

func newBKPair[T core.Scalar](herm bool, app, aqq, apq T) bkPair[T] {
	if herm {
		d := core.Abs(apq)
		dp, dq := core.Re(app)/d, core.Re(aqq)/d
		tt := 1 / (dq*dp - 1)
		return bkPair[T]{herm: true, c: core.FromFloat[T](tt / d), dp: core.FromFloat[T](dp),
			dq: core.FromFloat[T](dq), od: core.FromComplex[T](core.ToComplex(apq) / complex(d, 0))}
	}
	one := core.FromFloat[T](1)
	dp, dq := core.Div(app, apq), core.Div(aqq, apq)
	t := core.Div(one, dq*dp-one)
	return bkPair[T]{c: core.Div(t, apq), dp: dp, dq: dq}
}

func (d bkPair[T]) apply(xp, xq T) (wp, wq T) {
	if d.herm {
		return d.c * (d.dq*xp - core.Conj(d.od)*xq), d.c * (d.dp*xq - d.od*xp)
	}
	return d.c * (d.dq*xp - xq), d.c * (d.dp*xq - xp)
}

// bkTf2 is the unblocked Bunch–Kaufman kernel behind Sytf2 and Hetf2.
func bkTf2[T core.Scalar](herm bool, uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	f := bkOps[T]{herm}
	info := 0
	at := func(i, j int) T { return a[i+j*lda] }
	set := func(i, j int, v T) { a[i+j*lda] = v }
	// update2 applies the 2×2 pivot d in columns p and q to column j of
	// the unfactored block and stores row j of the factor.
	update2 := func(d bkPair[T], p, q, j int) {
		colj, colp, colq := a[j*lda:], a[p*lda:], a[q*lda:]
		wp, wq := d.apply(colp[j], colq[j])
		cwp, cwq := f.cj(wp), f.cj(wq)
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		for i := lo; i < hi; i++ {
			colj[i] = colj[i] - colq[i]*cwq - colp[i]*cwp
		}
		colq[j], colp[j] = wq, wp
		if herm {
			colj[j] = f.dg(colj[j])
		}
	}
	// pivot interchanges rows and columns kk and kp of the unfactored
	// block (for a 2×2 pivot kk is the partner of column k), keeps the
	// touched diagonal real when Hermitian and records the choice in ipiv.
	pivot := func(k, kk, kp, kstep int) {
		if kp != kk {
			if uplo == Upper {
				blas.Swap(kp, a[kk*lda:], 1, a[kp*lda:], 1)
			} else if kp < n-1 {
				blas.Swap(n-kp-1, a[kp+1+kk*lda:], 1, a[kp+1+kp*lda:], 1)
			}
			for j := min(kk, kp) + 1; j < max(kk, kp); j++ {
				t := f.cj(at(j, kk))
				set(j, kk, f.cj(at(kp, j)))
				set(kp, j, t)
			}
			if herm {
				set(kp, kk, core.Conj(at(kp, kk)))
			}
			t := at(kk, kk)
			set(kk, kk, at(kp, kp))
			set(kp, kp, t)
			if kk != k {
				t = at(kk, k)
				set(kk, k, at(kp, k))
				set(kp, k, t)
			}
		}
		if herm {
			set(kp, kp, f.dg(at(kp, kp)))
			set(k, k, f.dg(at(k, k)))
			set(kk, kk, f.dg(at(kk, kk)))
		}
		if kstep == 1 {
			ipiv[k] = kp
		} else {
			ipiv[k] = -(kp + 1)
			ipiv[kk] = -(kp + 1)
		}
	}
	if uplo == Upper {
		for k := n - 1; k >= 0; {
			kstep := 1
			kp := k
			absakk := f.dabs(at(k, k))
			imax, colmax := 0, 0.0
			if k > 0 {
				imax = blas.Iamax(k, a[k*lda:], 1)
				colmax = core.Abs1(at(imax, k))
			}
			if math.Max(absakk, colmax) == 0 {
				if info == 0 {
					info = k + 1
				}
				set(k, k, f.dg(at(k, k)))
				ipiv[k] = k
				k--
				continue
			}
			if absakk >= bkAlpha*colmax {
				kp = k
			} else {
				rowmax := 0.0
				for j := imax + 1; j <= k; j++ {
					rowmax = math.Max(rowmax, core.Abs1(at(imax, j)))
				}
				if imax > 0 {
					jmax := blas.Iamax(imax, a[imax*lda:], 1)
					rowmax = math.Max(rowmax, core.Abs1(at(jmax, imax)))
				}
				if absakk >= bkAlpha*colmax*(colmax/rowmax) {
					kp = k
				} else if f.dabs(at(imax, imax)) >= bkAlpha*rowmax {
					kp = imax
				} else {
					kp = imax
					kstep = 2
				}
			}
			kk := k - kstep + 1
			pivot(k, kk, kp, kstep)
			if kstep == 1 {
				f.pivot1(Upper, k, at(k, k), a[k*lda:], a, lda)
			} else if k > 1 {
				d := newBKPair(herm, at(k-1, k-1), at(k, k), at(k-1, k))
				for j := k - 2; j >= 0; j-- {
					update2(d, k-1, k, j)
				}
			}
			k -= kstep
		}
		return info
	}
	for k := 0; k < n; {
		kstep := 1
		kp := k
		absakk := f.dabs(at(k, k))
		imax, colmax := 0, 0.0
		if k < n-1 {
			imax = k + 1 + blas.Iamax(n-k-1, a[k+1+k*lda:], 1)
			colmax = core.Abs1(at(imax, k))
		}
		if math.Max(absakk, colmax) == 0 {
			if info == 0 {
				info = k + 1
			}
			set(k, k, f.dg(at(k, k)))
			ipiv[k] = k
			k++
			continue
		}
		if absakk >= bkAlpha*colmax {
			kp = k
		} else {
			rowmax := 0.0
			for j := k; j < imax; j++ {
				rowmax = math.Max(rowmax, core.Abs1(at(imax, j)))
			}
			if imax < n-1 {
				jmax := imax + 1 + blas.Iamax(n-imax-1, a[imax+1+imax*lda:], 1)
				rowmax = math.Max(rowmax, core.Abs1(at(jmax, imax)))
			}
			if absakk >= bkAlpha*colmax*(colmax/rowmax) {
				kp = k
			} else if f.dabs(at(imax, imax)) >= bkAlpha*rowmax {
				kp = imax
			} else {
				kp = imax
				kstep = 2
			}
		}
		kk := k + kstep - 1
		pivot(k, kk, kp, kstep)
		if kstep == 1 {
			if k < n-1 {
				f.pivot1(Lower, n-k-1, at(k, k), a[k+1+k*lda:], a[k+1+(k+1)*lda:], lda)
			}
		} else if k < n-2 {
			d := newBKPair(herm, at(k+1, k+1), at(k, k), at(k+1, k))
			for j := k + 2; j < n; j++ {
				update2(d, k+1, k, j)
			}
		}
		k += kstep
	}
	return info
}

// bkPanel factors the last (Upper) or first (Lower) panel of the matrix
// with the Bunch–Kaufman pivoting strategy and applies the panel's
// transformations to the rest of the matrix with Level-3 updates (xLASYF,
// xLAHEF). w is an n×nb workspace holding the updated panel columns (the
// columns of U·D or L·D); kb is the number of columns actually factored —
// possibly nb-1, and one less than requested when the last pivot turned out
// 2×2. Pivots in ipiv and the info return follow Sytf2.
func bkPanel[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n, nb int, a []T, lda int, ipiv []int, w []T, ldw int) (kb, info int) {
	f := bkOps[T]{herm}
	one := core.FromFloat[T](1)
	// gemvW computes y -= A·x for a row x of w, conjugated when Hermitian.
	gemvW := func(m, nx int, aa, x, y []T) {
		if herm {
			lacgv(nx, x, ldw)
		}
		blas.Gemv(cfg, NoTrans, m, nx, -one, aa, lda, x, ldw, one, y, 1)
		if herm {
			lacgv(nx, x, ldw)
		}
	}
	// pivot2 stores a 2×2 pivot block in rows and columns p and q = k,
	// whose updated columns are w columns wp and wq, and rows lo..hi-1 of
	// the two factor columns W·D⁻¹.
	pivot2 := func(p, q, wp, wq, lo, hi int) {
		if lo < hi {
			d := w[p+wq*ldw]
			dq := core.Div(w[q+wq*ldw], f.cj(d))
			dp := core.Div(w[p+wp*ldw], d)
			var t T
			if herm {
				t = core.FromFloat[T](1 / (core.Re(dq*dp) - 1))
			} else {
				t = core.Div(one, dq*dp-one)
			}
			d = core.Div(t, d)
			cd := f.cj(d)
			for j := lo; j < hi; j++ {
				a[j+p*lda] = d * (dq*w[j+wp*ldw] - w[j+wq*ldw])
				a[j+q*lda] = cd * (dp*w[j+wq*ldw] - w[j+wp*ldw])
			}
		}
		a[p+p*lda] = w[p+wp*ldw]
		a[p+q*lda] = w[p+wq*ldw]
		a[q+q*lda] = w[q+wq*ldw]
	}
	if uplo == Upper {
		// Factor columns n-1 down to at most n-nb+1, storing updated
		// columns in the trailing columns of w: A column k lives in w
		// column kw = nb-n+k.
		k := n - 1
		for !((k <= n-nb && nb < n) || k < 0) {
			kw := nb - n + k
			// Copy column k and apply the updates from the columns already
			// factored in this panel.
			blas.Copy(k+1, a[k*lda:], 1, w[kw*ldw:], 1)
			w[k+kw*ldw] = f.dg(w[k+kw*ldw])
			if k < n-1 {
				gemvW(k+1, n-1-k, a[(k+1)*lda:], w[k+(kw+1)*ldw:], w[kw*ldw:])
				w[k+kw*ldw] = f.dg(w[k+kw*ldw])
			}
			kstep := 1
			absakk := f.dabs(w[k+kw*ldw])
			imax, colmax := 0, 0.0
			if k > 0 {
				imax = blas.Iamax(k, w[kw*ldw:], 1)
				colmax = core.Abs1(w[imax+kw*ldw])
			}
			kp := k
			if math.Max(absakk, colmax) == 0 {
				if info == 0 {
					info = k + 1
				}
				blas.Copy(k+1, w[kw*ldw:], 1, a[k*lda:], 1)
			} else {
				if absakk < bkAlpha*colmax {
					// Build the updated column imax in w column kw-1 (rows
					// below the diagonal from the row) to compare against
					// its row maximum.
					blas.Copy(imax+1, a[imax*lda:], 1, w[(kw-1)*ldw:], 1)
					w[imax+(kw-1)*ldw] = f.dg(w[imax+(kw-1)*ldw])
					for j := imax + 1; j <= k; j++ {
						w[j+(kw-1)*ldw] = f.cj(a[imax+j*lda])
					}
					if k < n-1 {
						gemvW(k+1, n-1-k, a[(k+1)*lda:], w[imax+(kw+1)*ldw:], w[(kw-1)*ldw:])
						w[imax+(kw-1)*ldw] = f.dg(w[imax+(kw-1)*ldw])
					}
					jmax := imax + 1 + blas.Iamax(k-imax, w[imax+1+(kw-1)*ldw:], 1)
					rowmax := core.Abs1(w[jmax+(kw-1)*ldw])
					if imax > 0 {
						jmax = blas.Iamax(imax, w[(kw-1)*ldw:], 1)
						rowmax = math.Max(rowmax, core.Abs1(w[jmax+(kw-1)*ldw]))
					}
					switch {
					case absakk >= bkAlpha*colmax*(colmax/rowmax):
						// kp = k: 1×1 pivot, no interchange.
					case f.dabs(w[imax+(kw-1)*ldw]) >= bkAlpha*rowmax:
						kp = imax
						blas.Copy(k+1, w[(kw-1)*ldw:], 1, w[kw*ldw:], 1)
					default:
						kp = imax
						kstep = 2
					}
				}
				kk := k - kstep + 1
				kkw := nb - n + kk
				if kp != kk {
					// Move row/column kk of the leading block to position kp
					// (column kk's data survives in w).
					a[kp+kp*lda] = f.dg(a[kk+kk*lda])
					for j := kp + 1; j < kk; j++ {
						a[kp+j*lda] = f.cj(a[j+kk*lda])
					}
					if kp > 0 {
						blas.Copy(kp, a[kk*lda:], 1, a[kp*lda:], 1)
					}
					if k < n-1 {
						blas.Swap(n-1-k, a[kk+(k+1)*lda:], lda, a[kp+(k+1)*lda:], lda)
					}
					blas.Swap(n-kk, w[kk+kkw*ldw:], ldw, w[kp+kkw*ldw:], ldw)
				}
				if kstep == 1 {
					// Store U(:,k) = w(:,kw)/d(k,k).
					blas.Copy(k+1, w[kw*ldw:], 1, a[k*lda:], 1)
					f.scalInv(k, a[k+k*lda], a[k*lda:], 1)
				} else {
					pivot2(k-1, k, kw-1, kw, 0, k-1)
				}
			}
			if kstep == 1 {
				ipiv[k] = kp
			} else {
				ipiv[k] = -(kp + 1)
				ipiv[k-1] = -(kp + 1)
			}
			k -= kstep
		}
		// Level-3 update of the unfactored leading block
		// A(0:k+1, 0:k+1) -= U12·(D·U12ᵀ) (U12ᴴ when Hermitian), in
		// nb-wide column blocks: a triangular Gemv strip plus one
		// rectangular Gemm each.
		kRem := k + 1
		kwr := nb - n + kRem
		for j0 := ((kRem - 1) / nb) * nb; j0 >= 0; j0 -= nb {
			cfg.Checkpoint() // once per panel
			jb := min(nb, kRem-j0)
			for jj := j0; jj < j0+jb; jj++ {
				gemvW(jj-j0+1, n-kRem, a[j0+kRem*lda:], w[jj+kwr*ldw:], a[j0+jj*lda:])
				a[jj+jj*lda] = f.dg(a[jj+jj*lda])
			}
			if j0 > 0 {
				blas.Gemm(cfg, NoTrans, f.trans(), j0, jb, n-kRem, -one, a[kRem*lda:], lda,
					w[j0+kwr*ldw:], ldw, one, a[j0*lda:], lda)
			}
		}
		// Put U12 in standard form: partially undo the interchanges in the
		// factored columns so the solve can apply ipiv sequentially.
		for j := kRem; j < n; {
			jj := j
			jp := ipiv[j]
			if jp < 0 {
				jp = -jp - 1
				j++
			}
			j++
			if jp != jj && j < n {
				blas.Swap(n-j, a[jp+j*lda:], lda, a[jj+j*lda:], lda)
			}
		}
		return n - kRem, info
	}
	// Lower triangle: factor columns 0 .. at most nb-2, A column k in w
	// column k.
	k := 0
	for !((k >= nb-1 && nb < n) || k >= n) {
		blas.Copy(n-k, a[k+k*lda:], 1, w[k+k*ldw:], 1)
		w[k+k*ldw] = f.dg(w[k+k*ldw])
		if k > 0 {
			gemvW(n-k, k, a[k:], w[k:], w[k+k*ldw:])
			w[k+k*ldw] = f.dg(w[k+k*ldw])
		}
		kstep := 1
		absakk := f.dabs(w[k+k*ldw])
		imax, colmax := 0, 0.0
		if k < n-1 {
			imax = k + 1 + blas.Iamax(n-k-1, w[k+1+k*ldw:], 1)
			colmax = core.Abs1(w[imax+k*ldw])
		}
		kp := k
		if math.Max(absakk, colmax) == 0 {
			if info == 0 {
				info = k + 1
			}
			blas.Copy(n-k, w[k+k*ldw:], 1, a[k+k*lda:], 1)
		} else {
			if absakk < bkAlpha*colmax {
				// Updated column imax into w column k+1.
				for j := k; j < imax; j++ {
					w[j+(k+1)*ldw] = f.cj(a[imax+j*lda])
				}
				blas.Copy(n-imax, a[imax+imax*lda:], 1, w[imax+(k+1)*ldw:], 1)
				w[imax+(k+1)*ldw] = f.dg(w[imax+(k+1)*ldw])
				if k > 0 {
					gemvW(n-k, k, a[k:], w[imax:], w[k+(k+1)*ldw:])
					w[imax+(k+1)*ldw] = f.dg(w[imax+(k+1)*ldw])
				}
				jmax := k + blas.Iamax(imax-k, w[k+(k+1)*ldw:], 1)
				rowmax := core.Abs1(w[jmax+(k+1)*ldw])
				if imax < n-1 {
					jmax = imax + 1 + blas.Iamax(n-imax-1, w[imax+1+(k+1)*ldw:], 1)
					rowmax = math.Max(rowmax, core.Abs1(w[jmax+(k+1)*ldw]))
				}
				switch {
				case absakk >= bkAlpha*colmax*(colmax/rowmax):
					// kp = k: 1×1 pivot, no interchange.
				case f.dabs(w[imax+(k+1)*ldw]) >= bkAlpha*rowmax:
					kp = imax
					blas.Copy(n-k, w[k+(k+1)*ldw:], 1, w[k+k*ldw:], 1)
				default:
					kp = imax
					kstep = 2
				}
			}
			kk := k + kstep - 1
			if kp != kk {
				a[kp+kp*lda] = f.dg(a[kk+kk*lda])
				for j := kk + 1; j < kp; j++ {
					a[kp+j*lda] = f.cj(a[j+kk*lda])
				}
				if kp < n-1 {
					blas.Copy(n-kp-1, a[kp+1+kk*lda:], 1, a[kp+1+kp*lda:], 1)
				}
				if k > 0 {
					blas.Swap(k, a[kk:], lda, a[kp:], lda)
				}
				blas.Swap(kk+1, w[kk:], ldw, w[kp:], ldw)
			}
			if kstep == 1 {
				blas.Copy(n-k, w[k+k*ldw:], 1, a[k+k*lda:], 1)
				if k < n-1 {
					f.scalInv(n-k-1, a[k+k*lda], a[k+1+k*lda:], 1)
				}
			} else {
				pivot2(k+1, k, k+1, k, k+2, n)
			}
		}
		if kstep == 1 {
			ipiv[k] = kp
		} else {
			ipiv[k] = -(kp + 1)
			ipiv[k+1] = -(kp + 1)
		}
		k += kstep
	}
	// Level-3 update of the trailing block A(k:n, k:n) -= L21·(D·L21ᵀ)
	// (L21ᴴ when Hermitian).
	for j0 := k; j0 < n; j0 += nb {
		cfg.Checkpoint() // once per panel
		jb := min(nb, n-j0)
		for jj := j0; jj < j0+jb; jj++ {
			gemvW(j0+jb-jj, k, a[jj:], w[jj:], a[jj+jj*lda:])
			a[jj+jj*lda] = f.dg(a[jj+jj*lda])
		}
		if j0+jb < n {
			blas.Gemm(cfg, NoTrans, f.trans(), n-j0-jb, jb, k, -one, a[j0+jb:], lda,
				w[j0:], ldw, one, a[j0+jb+j0*lda:], lda)
		}
	}
	// Partially undo the interchanges to put L21 in standard form.
	for j := k - 1; j > 0; {
		jj := j
		jp := ipiv[j]
		if jp < 0 {
			jp = -jp - 1
			j--
		}
		j--
		if jp != jj && j >= 0 {
			blas.Swap(j+1, a[jp:], lda, a[jj:], lda)
		}
	}
	return k, info
}

// bkTrf is the blocked Bunch–Kaufman driver behind Sytrf and Hetrf: panels
// are factored with bkPanel so the bulk of the update flops run as Level-3
// Gemm calls, with an unblocked bkTf2 cleanup on the last sub-panel block.
func bkTrf[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	name := "SYTRF"
	if herm {
		name = "HETRF"
	}
	nb := Ilaenv(cfg, 1, name, n, -1, -1, -1)
	if nb <= 1 || nb >= n {
		return bkTf2(herm, uplo, n, a, lda, ipiv)
	}
	info := 0
	w := make([]T, n*nb)
	if uplo == Upper {
		// Peel panels off the trailing columns; the leading block shrinks.
		for k := n; k > 0; {
			if k <= nb {
				if iinfo := bkTf2(herm, Upper, k, a, lda, ipiv[:k]); iinfo != 0 && info == 0 {
					info = iinfo
				}
				break
			}
			kb, iinfo := bkPanel(cfg, herm, Upper, k, nb, a, lda, ipiv, w, n)
			if iinfo != 0 && info == 0 {
				info = iinfo
			}
			k -= kb
		}
		return info
	}
	// Lower: peel panels off the leading columns; pivot indices and info
	// come back relative to the submatrix and are shifted to global rows.
	adjust := func(lo, hi, off int) {
		for j := lo; j < hi; j++ {
			if ipiv[j] >= 0 {
				ipiv[j] += off
			} else {
				ipiv[j] -= off
			}
		}
	}
	for k := 0; k < n; {
		if n-k <= nb {
			if iinfo := bkTf2(herm, Lower, n-k, a[k+k*lda:], lda, ipiv[k:]); iinfo != 0 && info == 0 {
				info = iinfo + k
			}
			adjust(k, n, k)
			break
		}
		kb, iinfo := bkPanel(cfg, herm, Lower, n-k, nb, a[k+k*lda:], lda, ipiv[k:], w, n-k)
		if iinfo != 0 && info == 0 {
			info = iinfo + k
		}
		adjust(k, k+kb, k)
		k += kb
	}
	return info
}

// bkTrs solves A·X = B with the factorization from bkTrf (xSYTRS, xHETRS).
func bkTrs[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	if n == 0 || nrhs == 0 {
		return
	}
	f := bkOps[T]{herm}
	one := core.FromFloat[T](1)
	at := func(i, j int) T { return a[i+j*lda] }
	conjRow := func(k int) {
		for j := 0; j < nrhs; j++ {
			b[k+j*ldb] = core.Conj(b[k+j*ldb])
		}
	}
	// gemvT computes row r of B -= xᵀ·bb (xᴴ·bb when Hermitian) for a
	// factor column x of length m.
	gemvT := func(m int, bb, x []T, r int) {
		if herm {
			conjRow(r)
		}
		blas.Gemv(cfg, f.trans(), m, nrhs, -one, bb, ldb, x, 1, one, b[r:], ldb)
		if herm {
			conjRow(r)
		}
	}
	// solve2 applies the inverse of the 2×2 pivot block in rows and
	// columns q = k and its partner p.
	solve2 := func(p, q int) {
		d := at(p, q)
		app := core.Div(at(p, p), d)
		aqq := core.Div(at(q, q), f.cj(d))
		denom := app*aqq - one
		for j := 0; j < nrhs; j++ {
			bp := core.Div(b[p+j*ldb], d)
			bq := core.Div(b[q+j*ldb], f.cj(d))
			b[p+j*ldb] = core.Div(aqq*bp-bq, denom)
			b[q+j*ldb] = core.Div(app*bq-bp, denom)
		}
	}
	if uplo == Upper {
		// First solve U·D·x' = b, walking the blocks from the bottom.
		for k := n - 1; k >= 0; {
			if ipiv[k] >= 0 {
				if kp := ipiv[k]; kp != k {
					blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
				}
				blas.Ger(k, nrhs, -one, a[k*lda:], 1, b[k:], ldb, b, ldb)
				f.scalInv(nrhs, at(k, k), b[k:], ldb)
				k--
			} else {
				if kp := -ipiv[k] - 1; kp != k-1 {
					blas.Swap(nrhs, b[k-1:], ldb, b[kp:], ldb)
				}
				blas.Ger(k-1, nrhs, -one, a[k*lda:], 1, b[k:], ldb, b, ldb)
				blas.Ger(k-1, nrhs, -one, a[(k-1)*lda:], 1, b[k-1:], ldb, b, ldb)
				solve2(k-1, k)
				k -= 2
			}
		}
		// Then multiply by inv(Uᵀ) (inv(Uᴴ)), walking the blocks from the top.
		for k := 0; k < n; {
			gemvT(k, b, a[k*lda:], k)
			if ipiv[k] >= 0 {
				if kp := ipiv[k]; kp != k {
					blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
				}
				k++
			} else {
				gemvT(k, b, a[(k+1)*lda:], k+1)
				if kp := -ipiv[k] - 1; kp != k {
					blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
				}
				k += 2
			}
		}
		return
	}
	// Lower: solve L·D·x' = b from the top...
	for k := 0; k < n; {
		if ipiv[k] >= 0 {
			if kp := ipiv[k]; kp != k {
				blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
			}
			if k < n-1 {
				blas.Ger(n-k-1, nrhs, -one, a[k+1+k*lda:], 1, b[k:], ldb, b[k+1:], ldb)
			}
			f.scalInv(nrhs, at(k, k), b[k:], ldb)
			k++
		} else {
			if kp := -ipiv[k] - 1; kp != k+1 {
				blas.Swap(nrhs, b[k+1:], ldb, b[kp:], ldb)
			}
			if k < n-2 {
				blas.Ger(n-k-2, nrhs, -one, a[k+2+k*lda:], 1, b[k:], ldb, b[k+2:], ldb)
				blas.Ger(n-k-2, nrhs, -one, a[k+2+(k+1)*lda:], 1, b[k+1:], ldb, b[k+2:], ldb)
			}
			solve2(k+1, k)
			k += 2
		}
	}
	// ...then multiply by inv(Lᵀ) (inv(Lᴴ)) from the bottom; a 2×2 block
	// occupies rows k-1 and k.
	for k := n - 1; k >= 0; {
		if k < n-1 {
			gemvT(n-k-1, b[k+1:], a[k+1+k*lda:], k)
		}
		if ipiv[k] >= 0 {
			if kp := ipiv[k]; kp != k {
				blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
			}
			k--
		} else {
			if k < n-1 {
				gemvT(n-k-1, b[k+1:], a[k+1+(k-1)*lda:], k-1)
			}
			if kp := -ipiv[k] - 1; kp != k {
				blas.Swap(nrhs, b[k:], ldb, b[kp:], ldb)
			}
			k -= 2
		}
	}
}

// bkSv factors A and, when it is nonsingular, solves A·X = B (xSYSV, xHESV).
func bkSv[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) int {
	info := bkTrf(cfg, herm, uplo, n, a, lda, ipiv)
	if info == 0 {
		bkTrs(cfg, herm, uplo, n, nrhs, a, lda, ipiv, b, ldb)
	}
	return info
}

// bkCon estimates the reciprocal 1-norm condition number from the
// factorization (xSYCON, xHECON).
func bkCon[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n int, a []T, lda int, ipiv []int, anorm float64) float64 {
	if n == 0 {
		return 1
	}
	if anorm == 0 {
		return 0
	}
	ainvnm := Lacn2(n, func(conjTrans bool, x []T) {
		bkTrs(cfg, herm, uplo, n, 1, a, lda, ipiv, x, n)
	})
	return rcondFromEst(ainvnm, anorm)
}

// bkRfs iteratively refines a solution and returns error bounds (xSYRFS,
// xHERFS).
func bkRfs[T core.Scalar](cfg *core.Config, herm bool, uplo Uplo, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int, ferr, berr []float64) {
	symv := blas.Symv[T]
	if herm {
		symv = blas.Hemv[T]
	}
	rfs(NoTrans, n, nrhs,
		func(_ Trans, alpha T, x []T, beta T, y []T) { symv(uplo, n, alpha, a, lda, x, 1, beta, y, 1) },
		func(_ Trans, xa, y []float64) { absSymv(uplo, n, a, lda, xa, y) },
		func(_ Trans, r []T) { bkTrs(cfg, herm, uplo, n, 1, af, ldaf, ipiv, r, n) },
		b, ldb, x, ldx, ferr, berr)
}

// bkSvx is the expert driver (xSYSVX, xHESVX).
func bkSvx[T core.Scalar](cfg *core.Config, herm bool, fact Fact, uplo Uplo, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int) SysvxResult {
	res := SysvxResult{Ferr: make([]float64, nrhs), Berr: make([]float64, nrhs)}
	if fact != FactFact {
		Lacpy('A', n, n, a, lda, af, ldaf)
		res.Info = bkTrf(cfg, herm, uplo, n, af, ldaf, ipiv)
	}
	if res.Info > 0 {
		return res
	}
	anorm := Lansy(OneNorm, uplo, n, a, lda)
	res.RCond = bkCon(cfg, herm, uplo, n, af, ldaf, ipiv, anorm)
	Lacpy('A', n, nrhs, b, ldb, x, ldx)
	bkTrs(cfg, herm, uplo, n, nrhs, af, ldaf, ipiv, x, ldx)
	bkRfs(cfg, herm, uplo, n, nrhs, a, lda, af, ldaf, ipiv, b, ldb, x, ldx, res.Ferr, res.Berr)
	if res.RCond < core.Eps[T]() {
		res.Info = n + 1
	}
	return res
}

// Sytf2 computes the Bunch–Kaufman factorization A = U·D·Uᵀ or A = L·D·Lᵀ
// of a symmetric matrix (xSYTF2; for complex element types this is the
// complex-symmetric factorization, not the Hermitian one — see Hetf2).
//
// Pivots are encoded in ipiv as in LAPACK, translated to 0-based indices:
// ipiv[k] >= 0 means a 1×1 pivot with rows/columns k and ipiv[k]
// interchanged; ipiv[k] = ipiv[k-1] = -(p+1) < 0 (Upper; k and k+1 for
// Lower) marks a 2×2 pivot block with row p interchanged.
// Returns k+1 (1-based) if D(k,k) is exactly singular.
func Sytf2[T core.Scalar](uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	return bkTf2(false, uplo, n, a, lda, ipiv)
}

// Hetf2 computes the Bunch–Kaufman factorization A = U·D·Uᴴ or A = L·D·Lᴴ
// of a Hermitian matrix (xHETF2). For real element types it is Sytf2
// mathematically, though not bit for bit for float32. Pivot encoding and
// the info return follow Sytf2.
func Hetf2[T core.Scalar](uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	return bkTf2(true, uplo, n, a, lda, ipiv)
}

// Sytrf computes the Bunch–Kaufman factorization of a symmetric matrix
// (xSYTRF), blocked as described at bkTrf.
func Sytrf[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	return bkTrf(cfg, false, uplo, n, a, lda, ipiv)
}

// Hetrf computes the Bunch–Kaufman factorization of a Hermitian matrix
// (xHETRF), blocked as described at bkTrf.
func Hetrf[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, ipiv []int) int {
	return bkTrf(cfg, true, uplo, n, a, lda, ipiv)
}

// Sytrs solves A·X = B using the factorization from Sytrf (xSYTRS).
func Sytrs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	bkTrs(cfg, false, uplo, n, nrhs, a, lda, ipiv, b, ldb)
}

// Hetrs solves A·X = B using the Hermitian factorization from Hetrf
// (xHETRS).
func Hetrs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	bkTrs(cfg, true, uplo, n, nrhs, a, lda, ipiv, b, ldb)
}

// Sysv solves A·X = B for a symmetric indefinite matrix (the xSYSV driver).
func Sysv[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) int {
	return bkSv(cfg, false, uplo, n, nrhs, a, lda, ipiv, b, ldb)
}

// Hesv solves A·X = B for a Hermitian indefinite matrix (the xHESV driver).
func Hesv[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) int {
	return bkSv(cfg, true, uplo, n, nrhs, a, lda, ipiv, b, ldb)
}

// Sycon estimates the reciprocal 1-norm condition number of a symmetric
// indefinite matrix from its Bunch–Kaufman factorization (xSYCON).
func Sycon[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, ipiv []int, anorm float64) float64 {
	return bkCon(cfg, false, uplo, n, a, lda, ipiv, anorm)
}

// Hecon estimates the reciprocal 1-norm condition number of a Hermitian
// indefinite matrix from its factorization (xHECON).
func Hecon[T core.Scalar](cfg *core.Config, uplo Uplo, n int, a []T, lda int, ipiv []int, anorm float64) float64 {
	return bkCon(cfg, true, uplo, n, a, lda, ipiv, anorm)
}

// Syrfs iteratively refines the solution of a symmetric indefinite system
// and returns error bounds (xSYRFS).
func Syrfs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int, ferr, berr []float64) {
	bkRfs(cfg, false, uplo, n, nrhs, a, lda, af, ldaf, ipiv, b, ldb, x, ldx, ferr, berr)
}

// Herfs iteratively refines the solution of a Hermitian indefinite system
// and returns error bounds (xHERFS).
func Herfs[T core.Scalar](cfg *core.Config, uplo Uplo, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int, ferr, berr []float64) {
	bkRfs(cfg, true, uplo, n, nrhs, a, lda, af, ldaf, ipiv, b, ldb, x, ldx, ferr, berr)
}

// SysvxResult carries the outputs of Sysvx / Hesvx.
type SysvxResult struct {
	RCond float64
	Ferr  []float64
	Berr  []float64
	Info  int
}

// Sysvx is the expert driver for symmetric indefinite systems (xSYSVX).
func Sysvx[T core.Scalar](cfg *core.Config, fact Fact, uplo Uplo, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int) SysvxResult {
	return bkSvx(cfg, false, fact, uplo, n, nrhs, a, lda, af, ldaf, ipiv, b, ldb, x, ldx)
}

// Hesvx is the expert driver for Hermitian indefinite systems (xHESVX).
func Hesvx[T core.Scalar](cfg *core.Config, fact Fact, uplo Uplo, n, nrhs int, a []T, lda int, af []T, ldaf int, ipiv []int, b []T, ldb int, x []T, ldx int) SysvxResult {
	return bkSvx(cfg, true, fact, uplo, n, nrhs, a, lda, af, ldaf, ipiv, b, ldb, x, ldx)
}
