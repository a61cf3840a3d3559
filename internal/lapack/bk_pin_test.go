package lapack_test

// Bit-identity pin for the Bunch–Kaufman family (Sytf2/Sytrf/Sytrs,
// Hetf2/Hetrf/Hetrs, Sysvx/Hesvx, the packed Sp*/Hp* routines). Every case
// hashes the exact output bits. The hashes were recorded from the separate
// symmetric and Hermitian implementations that the shared conj-parametrised
// one replaced; a mismatch means an output bit changed.
//
// The sizes straddle the default Bunch–Kaufman panel width (nb = 48): n = 47
// and 48 run the unblocked kernel only, 49, 97 and 130 run one or more
// panels plus the unblocked cleanup. Each (type, herm, uplo, input) row
// aggregates all sizes. Outputs are pinned at the default configuration
// under two micro-kernel regimes: the portable Go kernels (forced), and the
// regime the machine selects (the amd64 assembly kernels when the CPU has
// AVX2+FMA, otherwise the portable ones again). Other architectures may fuse
// multiply-adds in the portable kernels, so the pin runs on amd64 only.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/lapack"
)

var bkPinSizes = []int{1, 2, 7, 47, 48, 49, 97, 130}

// bkPinInputs are the matrix kinds: random entries, a diagonal scaled by
// 1e-3 so most pivots are 2×2, and random entries with one exactly zero
// row and column so the factorization reports info > 0.
var bkPinInputs = []string{"random", "smalldiag", "zerocol"}

// bkPinHashes maps "type/sy|he/U|L/input" to the SHA-256 of every output
// for all sizes: {portable kernels, machine-selected kernels}.
var bkPinHashes = map[string][2]string{
	"float32/sy/U/random":       {"7253276eb56add9fa5bde47195fefba91a8760e11816e5b499f128e623662fd6", "28b99e6724242ff68c378364067b338fe5f7405d4fb75b6f507ce316ad8209fe"},
	"float32/sy/U/smalldiag":    {"ffe9486a06e90517711959ff0ca2af456e71b46b508a7200e8f8594b2bc721ad", "b18e5cbbc2b27e848910777a664b6721d62a8815ff44bb7f85ebebc8eea8ec18"},
	"float32/sy/U/zerocol":      {"9f27542587e9e12897858400ef6060abfff56e9b0a0ed0d6d1d83ee1ce89d26a", "4e765996acc73b7c93a0dac1dd35be7ac8e38730a9a5c3b079a57115e5dfaa0b"},
	"float32/sy/L/random":       {"eac2374f5d8b7a2c8e079a23a30a2aab52cc161dc20d7fd00beeff0f9427288c", "4e3c0b3bf6df2c1174ab5d6e2efde73c35f0658c9992ac289ae5be8df4451964"},
	"float32/sy/L/smalldiag":    {"f4f57a41e7f1703d17df1b50745ead28551ebbca47a133ee75f3bfccc650a6a6", "c8cf83b49a63c231f90c89f38df538317e4668756a746119c4e799e54ce7f494"},
	"float32/sy/L/zerocol":      {"b0a9716a91e98b26d224414cab8c920d3925b7ce92445bb0659b61c1b380f735", "b02883759daf3dbed3f466a4f45b442f129798c81076f9e1b8cd22ef778c5bbc"},
	"float32/he/U/random":       {"a56f2c158a184048e4c10044f095e355985c0f46a1bab5fe8b63f489d2124d29", "cbdd31666ef5d8e8aa332f0299e2232a0d73303b6aeb89b65025b2c5ee1b96e1"},
	"float32/he/U/smalldiag":    {"2f3b2c2c89d46dd20cc3bf84f80bc684f5416952404438aa151ff5bd8fff4a0e", "b87c327a14aa5ab266f3f5c509afe7316300e0c8188986bbf3a019aab1b713b6"},
	"float32/he/U/zerocol":      {"e08a536a24178feac67e5e9ca01006d298e1a18e0d8bdc959737182e0869401f", "0e7c0d71bf947ba23db7caea98f2bfbf6f9d2a6a40a786f2b9749db420b880e9"},
	"float32/he/L/random":       {"12521032fb28bb236fa2a43c8e4109fd1892e6b5dd74780488dbc95f0b671d55", "afddccb3359ae118e31d01f9f87ffdd6fb858583ad783757b6f0e997c3e15e42"},
	"float32/he/L/smalldiag":    {"2c045e2fbb878be07ce4b6fbeedc01d3c8397893ead5cfa3da1d00bbfaeddad0", "9ce7560329b9277dc370c2dff8bd6595ac86c003d4d472dca39b0272a3017756"},
	"float32/he/L/zerocol":      {"222502c434194b6989ac520a38edcbe185b8f9284f2fcf5a1a185bc8b00997c9", "f5709ed77867b5f775483feb1a9bccc246661ab0a4c5a479c515f5eb58ae29c8"},
	"float64/sy/U/random":       {"a30be62712494e5926c20968cc7618cf100cf06fc1132e1985d9c7cc609fe5e0", "165f89197ffad93727466cffc8c29d0d9c68b655c3bbcb4548c0e61b8e2a85a3"},
	"float64/sy/U/smalldiag":    {"72360f363aca10eb9def2eb05b9bdc82ff0f5dca90975bea2c967cf201f5f3b2", "bdd8327208c0ac8eb607ca34413f89811b7efaa040769a7a50ba9687b810963a"},
	"float64/sy/U/zerocol":      {"40c1a6f282c99487b397dd87adcdd11549f2adbda7d9d79a991fc6bde0fb4e73", "43b270f0218426b09769c629e740bc81b7fbda427c29998809a10c5f8887cf93"},
	"float64/sy/L/random":       {"b24fac9f61950f84e61aaa3ecb8e3ee0e0cad0fc57b7ef2f52e6babc61795957", "19046215ce4c25449f5a038ef2ac80c002568752e5eef63f59bf94ae371c4c8d"},
	"float64/sy/L/smalldiag":    {"71ef389fb12a85d144ad313f150c913aa62813de272a8c33de26469bb6cffc35", "039806490fff2a5830be4dc6a534456fe8b9f2fa8c1e2b85f379110311f442f1"},
	"float64/sy/L/zerocol":      {"a492e13058b292dab902416c04d2d80f903e4bc708e0aedd2970350fef47a02b", "c4b881aea85d6e71cac246893b93e14643547d1e24b999ee1bb7499f97ed62c1"},
	"float64/he/U/random":       {"a30be62712494e5926c20968cc7618cf100cf06fc1132e1985d9c7cc609fe5e0", "165f89197ffad93727466cffc8c29d0d9c68b655c3bbcb4548c0e61b8e2a85a3"},
	"float64/he/U/smalldiag":    {"72360f363aca10eb9def2eb05b9bdc82ff0f5dca90975bea2c967cf201f5f3b2", "bdd8327208c0ac8eb607ca34413f89811b7efaa040769a7a50ba9687b810963a"},
	"float64/he/U/zerocol":      {"a7db49925d74b8346ea663c700aa78c0fe6c1ac1d7937b06882f1bc04b762004", "806c15cee0874f1341582a5fd614d3958e1181f790feada3ddcae10f5aa01459"},
	"float64/he/L/random":       {"b24fac9f61950f84e61aaa3ecb8e3ee0e0cad0fc57b7ef2f52e6babc61795957", "19046215ce4c25449f5a038ef2ac80c002568752e5eef63f59bf94ae371c4c8d"},
	"float64/he/L/smalldiag":    {"71ef389fb12a85d144ad313f150c913aa62813de272a8c33de26469bb6cffc35", "039806490fff2a5830be4dc6a534456fe8b9f2fa8c1e2b85f379110311f442f1"},
	"float64/he/L/zerocol":      {"89c4f7d5c8a99ac9ad8aaaad3cb913dfa076faeaf6b6441cfc74e169cba04f4c", "72043175ac1acbad8ebb7d5ad5b4519f72209196e159a5b37f0ef4c17c784601"},
	"complex64/sy/U/random":     {"5915bb6e32d16301c5eaaee182d0f128b2527e02e3356fb059dc3e46a355526f", "5915bb6e32d16301c5eaaee182d0f128b2527e02e3356fb059dc3e46a355526f"},
	"complex64/sy/U/smalldiag":  {"a4fbd0fc9f2993a2935d69e825ab4d747f9587924a619388b74a6421c8e7bab7", "a4fbd0fc9f2993a2935d69e825ab4d747f9587924a619388b74a6421c8e7bab7"},
	"complex64/sy/U/zerocol":    {"fafa178be5767d502a6a92ac0a7ea7e88e00e6c2a50b64c3345a35579e38dac0", "fafa178be5767d502a6a92ac0a7ea7e88e00e6c2a50b64c3345a35579e38dac0"},
	"complex64/sy/L/random":     {"51642b017079015453e4d5f3b1c6a44b81bc839d5fd2f0aea2749662a385447b", "51642b017079015453e4d5f3b1c6a44b81bc839d5fd2f0aea2749662a385447b"},
	"complex64/sy/L/smalldiag":  {"fc2a83d831cb9f312640fc16c641e8785a556c3400cbd5d27148435153dc9a77", "fc2a83d831cb9f312640fc16c641e8785a556c3400cbd5d27148435153dc9a77"},
	"complex64/sy/L/zerocol":    {"c5d5acbe1df0d7278f8c997a9effc3f88efce2268a6dfe5d586b691d99d8d7b1", "c5d5acbe1df0d7278f8c997a9effc3f88efce2268a6dfe5d586b691d99d8d7b1"},
	"complex64/he/U/random":     {"810f52f256d537f22c2665d18076ce1f4db2886a919a83e566a05f10e507c60f", "810f52f256d537f22c2665d18076ce1f4db2886a919a83e566a05f10e507c60f"},
	"complex64/he/U/smalldiag":  {"09a400e11b5945c2579e131412e47cb521d1a4980d1737d75adbd123f49eba64", "09a400e11b5945c2579e131412e47cb521d1a4980d1737d75adbd123f49eba64"},
	"complex64/he/U/zerocol":    {"a582f1a7365b001989824db3411de706faf5ba71c1519f5e503dba3096a30e44", "a582f1a7365b001989824db3411de706faf5ba71c1519f5e503dba3096a30e44"},
	"complex64/he/L/random":     {"502fe4aa3be7a1cf343e368d31d07feddc9c414223cf8de58e71ff97361ef5bb", "502fe4aa3be7a1cf343e368d31d07feddc9c414223cf8de58e71ff97361ef5bb"},
	"complex64/he/L/smalldiag":  {"b5db9d813c7234291f617718e27212cc3b3f28ee953e68e359c132cb23b741df", "b5db9d813c7234291f617718e27212cc3b3f28ee953e68e359c132cb23b741df"},
	"complex64/he/L/zerocol":    {"461bac20f6756551e04bfad8248fbc72db2f2748611a9fdf57db0b3ca8906420", "461bac20f6756551e04bfad8248fbc72db2f2748611a9fdf57db0b3ca8906420"},
	"complex128/sy/U/random":    {"16907ac0774a384bb3c7469980d9520d8f13aed115671e13db119dd6c6be935c", "16907ac0774a384bb3c7469980d9520d8f13aed115671e13db119dd6c6be935c"},
	"complex128/sy/U/smalldiag": {"014bde921f2c5da9552b022e21acf97f8554ceb4316a798853b6b9aabb405c8b", "014bde921f2c5da9552b022e21acf97f8554ceb4316a798853b6b9aabb405c8b"},
	"complex128/sy/U/zerocol":   {"409485cb95786b91e011161422aa870a59c4d1801f9184c0501b135dfbe779eb", "409485cb95786b91e011161422aa870a59c4d1801f9184c0501b135dfbe779eb"},
	"complex128/sy/L/random":    {"002ae43abffbc518a0772950a68ea00be15498fd0ae7ced5842c54dbfe0a1d32", "002ae43abffbc518a0772950a68ea00be15498fd0ae7ced5842c54dbfe0a1d32"},
	"complex128/sy/L/smalldiag": {"5616ea8b3d95b67ad79e35e159025f8b9c5da436d8c7c337eaf4f555915b457d", "5616ea8b3d95b67ad79e35e159025f8b9c5da436d8c7c337eaf4f555915b457d"},
	"complex128/sy/L/zerocol":   {"9b94db2b7f293b1027700de6fa8e864aac8a56cef721b060b31c970ae68e1566", "9b94db2b7f293b1027700de6fa8e864aac8a56cef721b060b31c970ae68e1566"},
	"complex128/he/U/random":    {"44899ef1510d37be1590606524a4491bf7346671519065e0394f73e21f79b20c", "44899ef1510d37be1590606524a4491bf7346671519065e0394f73e21f79b20c"},
	"complex128/he/U/smalldiag": {"f011b2e08185de92e1504c26a0d80ec96ceb520826b411958ff688b95a508df9", "f011b2e08185de92e1504c26a0d80ec96ceb520826b411958ff688b95a508df9"},
	"complex128/he/U/zerocol":   {"bc379307b9efa45b1d9292f8848606ea67dc773332015d0bf084b017ec8ad464", "bc379307b9efa45b1d9292f8848606ea67dc773332015d0bf084b017ec8ad464"},
	"complex128/he/L/random":    {"db3f206fdf9d99c99f11bb0605c817a6c3beed0f3de104bfd91742e5fffee810", "db3f206fdf9d99c99f11bb0605c817a6c3beed0f3de104bfd91742e5fffee810"},
	"complex128/he/L/smalldiag": {"bdc08c5f76563943544c6adf5d6531238a069f8f41059dc6726482548e45d22c", "bdc08c5f76563943544c6adf5d6531238a069f8f41059dc6726482548e45d22c"},
	"complex128/he/L/zerocol":   {"913da2a5db35b06168c80e7bb2af76ab79f70924be4e7d195118b20c15619836", "913da2a5db35b06168c80e7bb2af76ab79f70924be4e7d195118b20c15619836"},
}

// bkPinMatrix builds an n×n symmetric (herm false; complex symmetric for
// complex T) or Hermitian matrix with leading dimension n+3 whose padding
// rows hold a sentinel, so writes outside the matrix change the hash.
func bkPinMatrix[T core.Scalar](herm bool, n int, input string, seed int) ([]T, int) {
	lda := n + 3
	rng := lapack.NewRng([4]int{seed, n, len(input), 7})
	a := make([]T, lda*n)
	for i := range a {
		a[i] = core.FromFloat[T](7)
	}
	col := make([]T, n)
	for j := 0; j < n; j++ {
		lapack.Larnv(2, rng, n, col)
		for i := 0; i < j; i++ {
			a[i+j*lda] = col[i]
			if herm {
				a[j+i*lda] = core.Conj(col[i])
			} else {
				a[j+i*lda] = col[i]
			}
		}
		d := col[j]
		if herm {
			d = core.FromFloat[T](core.Re(d))
		}
		if input == "smalldiag" {
			d *= core.FromFloat[T](1e-3)
		}
		a[j+j*lda] = d
	}
	if input == "zerocol" {
		z := n / 2
		for i := 0; i < n; i++ {
			a[i+z*lda] = 0
			a[z+i*lda] = 0
		}
	}
	return a, lda
}

func bkPinWrite(h hash.Hash, vs ...any) {
	for _, v := range vs {
		if p, ok := v.([]int); ok {
			q := make([]int64, len(p))
			for i, x := range p {
				q[i] = int64(x)
			}
			v = q
		} else if x, ok := v.(int); ok {
			v = int64(x)
		}
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
}

// bkPinCase runs every pinned routine on one input and feeds the outputs
// to h. It returns the blocked factorization's info and ipiv for the
// sanity checks.
func bkPinCase[T core.Scalar](h hash.Hash, herm bool, uplo lapack.Uplo, n int, input string) (int, []int) {
	cfg := tcfg()
	a, lda := bkPinMatrix[T](herm, n, input, int(uplo)+2)
	trf, tf2, trs := lapack.Sytrf[T], lapack.Sytf2[T], lapack.Sytrs[T]
	svx, ptrf, ptrs, pcon, prfs := lapack.Sysvx[T], lapack.Sptrf[T], lapack.Sptrs[T], lapack.Spcon[T], lapack.Sprfs[T]
	if herm {
		trf, tf2, trs = lapack.Hetrf[T], lapack.Hetf2[T], lapack.Hetrs[T]
		svx, ptrf, ptrs, pcon, prfs = lapack.Hesvx[T], lapack.Hptrf[T], lapack.Hptrs[T], lapack.Hpcon[T], lapack.Hprfs[T]
	}
	const nrhs = 3
	ldb := n + 1
	b := make([]T, ldb*nrhs)
	lapack.Larnv(2, lapack.NewRng([4]int{n, 5, 3, 1}), len(b), b)

	// Blocked factorization and solve.
	af := append([]T(nil), a...)
	ipiv := make([]int, n)
	info := trf(cfg, uplo, n, af, lda, ipiv)
	bkPinWrite(h, af, ipiv, info)
	if info == 0 {
		x := append([]T(nil), b...)
		trs(cfg, uplo, n, nrhs, af, lda, ipiv, x, ldb)
		bkPinWrite(h, x)
	}

	// Unblocked kernel on the same input.
	au := append([]T(nil), a...)
	ipivU := make([]int, n)
	bkPinWrite(h, au, ipivU, tf2(uplo, n, au, lda, ipivU))

	// Expert driver: condition estimate and refinement.
	afx := make([]T, lda*n)
	ipivX := make([]int, n)
	xx := make([]T, ldb*nrhs)
	res := svx(cfg, lapack.FactNone, uplo, n, nrhs, a, lda, afx, lda, ipivX, b, ldb, xx, ldb)
	bkPinWrite(h, res.RCond, res.Ferr, res.Berr, res.Info, xx)

	// Packed storage.
	ap := make([]T, n*(n+1)/2)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if (uplo == lapack.Upper) == (i <= j) {
				ap[blas.PackIdx(blas.Uplo(uplo), n, i, j)] = a[i+j*lda]
			}
		}
	}
	afp := append([]T(nil), ap...)
	ipivP := make([]int, n)
	pinfo := ptrf(uplo, n, afp, ipivP)
	bkPinWrite(h, afp, ipivP, pinfo)
	if pinfo == 0 {
		x := append([]T(nil), b...)
		ptrs(cfg, uplo, n, nrhs, afp, ipivP, x, ldb)
		rc := pcon(cfg, uplo, n, afp, ipivP, lapack.Lansp(lapack.OneNorm, uplo, n, ap))
		ferr, berr := make([]float64, nrhs), make([]float64, nrhs)
		prfs(cfg, uplo, n, nrhs, ap, afp, ipivP, b, ldb, x, ldb, ferr, berr)
		bkPinWrite(h, x, rc, ferr, berr)
	}
	return info, ipiv
}

func testBKPin[T core.Scalar](t *testing.T, name string) {
	for _, herm := range []bool{false, true} {
		for _, uplo := range []lapack.Uplo{lapack.Upper, lapack.Lower} {
			for _, input := range bkPinInputs {
				key := fmt.Sprintf("%s/%s/%s/%s", name, map[bool]string{false: "sy", true: "he"}[herm],
					map[lapack.Uplo]string{lapack.Upper: "U", lapack.Lower: "L"}[uplo], input)
				var got [2]string
				for regime, portable := range []bool{true, false} {
					faultinject.ForcePortable(portable)
					h := sha256.New()
					for _, n := range bkPinSizes {
						info, ipiv := bkPinCase[T](h, herm, uplo, n, input)
						if input == "zerocol" && info <= 0 {
							t.Errorf("%s n=%d: info=%d, want > 0", key, n, info)
						}
						if input != "zerocol" && info != 0 {
							t.Errorf("%s n=%d: info=%d, want 0", key, n, info)
						}
						has2x2 := false
						for _, p := range ipiv {
							has2x2 = has2x2 || p < 0
						}
						if input == "smalldiag" && n >= 2 && !has2x2 {
							t.Errorf("%s n=%d: no 2×2 pivot", key, n)
						}
					}
					got[regime] = hex.EncodeToString(h.Sum(nil))
				}
				faultinject.ForcePortable(false)
				want := bkPinHashes[key]
				if got[0] != want[0] || (got[1] != want[1] && got[1] != want[0]) {
					t.Errorf("%s: output bits changed\n got  {%q, %q}\n want {%q, %q}", key, got[0], got[1], want[0], want[1])
				}
			}
		}
	}
}

func TestBunchKaufmanBitPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64")
	}
	defer faultinject.ForcePortable(false)
	t.Run("float32", func(t *testing.T) { testBKPin[float32](t, "float32") })
	t.Run("float64", func(t *testing.T) { testBKPin[float64](t, "float64") })
	t.Run("complex64", func(t *testing.T) { testBKPin[complex64](t, "complex64") })
	t.Run("complex128", func(t *testing.T) { testBKPin[complex128](t, "complex128") })
}
