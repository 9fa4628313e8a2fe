package linalg

// useAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers across context switches: CPUID.1:ECX.OSXSAVE and .AVX set,
// and XCR0 enabling both the SSE (bit 1) and AVX (bit 2) state.
var useAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbv()
	return eax&6 == 6
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gatherBlocksAVX adds the member rows into the first len(dst)&^31
// coordinates of dst, 32 at a time. It does no bounds checks: every
// row's window must already be known to lie inside src.
//
//go:noescape
func gatherBlocksAVX(dst, src []float64, rows []int32, stride int)

func addGatherRows(dst, src []float64, rows []int32, stride int) {
	if useAVX && len(dst) >= 32 && len(rows) > 0 && stride > 0 {
		checkRows(rows, len(dst), len(src), stride)
		gatherBlocksAVX(dst, src, rows, stride)
		n := len(dst) &^ 31
		dst, src = dst[n:], src[n:]
	}
	addGatherRowsGeneric(dst, src, rows, stride)
}

// checkRows panics unless every row's n-wide window, starting at
// row*stride, lies inside a src of length srcLen: the bounds the Go loop
// checks element by element. Rows are compared against the largest
// admissible index, so no product can overflow.
func checkRows(rows []int32, n, srcLen, stride int) {
	last := -1
	if hi := srcLen - n; hi >= 0 {
		last = hi / stride
	}
	for _, r := range rows {
		if r < 0 || int(r) > last {
			panic("linalg: AddGatherRows row index out of range")
		}
	}
}
