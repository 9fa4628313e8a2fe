//go:build !amd64

package linalg

func addGatherRows(dst, src []float64, rows []int32, stride int) {
	addGatherRowsGeneric(dst, src, rows, stride)
}
