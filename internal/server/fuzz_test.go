package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// binaryRowsSeeds are well-formed request bodies: one cell, a 64-row
// batch as the load benchmarks send it, IEEE special values, and a body
// longer than one decode chunk; plus a truncated body and a header that
// claims far more than its body carries.
func binaryRowsSeeds() [][]byte {
	batch, _ := seaRows(64, 41)
	special := [][]float64{{math.NaN(), math.Inf(1), math.Inf(-1)}, {math.Copysign(0, -1), 5e-324, -1e308}}
	wide := make([][]float64, 2)
	for i := range wide {
		wide[i] = make([]float64, binaryChunkCells/2+1)
		for j := range wide[i] {
			wide[i][j] = float64(i*len(wide[i]) + j)
		}
	}
	seeds := [][]byte{
		encodeBinaryRows([][]float64{{1.5}}),
		encodeBinaryRows(batch),
		encodeBinaryRows(special),
		encodeBinaryRows(wide),
	}
	full := seeds[1]
	forged := append([]byte(nil), full[:64]...)
	binary.LittleEndian.PutUint32(forged, 1<<20)
	binary.LittleEndian.PutUint32(forged[4:], 8)
	return append(seeds, full[:len(full)-3], forged)
}

// FuzzDecodeBinaryRows feeds arbitrary bodies to the binary rows
// decoder: every input yields either an error and no rows, or exactly
// the (rows, cols) matrix its header declares, holding the cells that
// follow the header bit for bit. It never panics.
func FuzzDecodeBinaryRows(f *testing.F) {
	for _, seed := range binaryRowsSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rows, err := decodeBinaryRows(bytes.NewReader(raw))
		if err != nil {
			if rows != nil {
				t.Fatalf("decodeBinaryRows returned %d rows alongside error %v", len(rows), err)
			}
			return
		}
		n := int(binary.LittleEndian.Uint32(raw))
		m := int(binary.LittleEndian.Uint32(raw[4:]))
		if len(rows) != n {
			t.Fatalf("decoded %d rows, header says %d", len(rows), n)
		}
		for i, row := range rows {
			if len(row) != m || cap(row) != m {
				t.Fatalf("row %d: len %d cap %d, header says %d columns", i, len(row), cap(row), m)
			}
		}
		if body := raw[:8+8*n*m]; !bytes.Equal(encodeBinaryRows(rows), body) {
			t.Fatal("decoded cells do not re-encode to the request body")
		}
	})
}

// A header that claims the largest admitted shape, with 16 bytes of body,
// costs one decode chunk, not the 64 MiB it declares (the decoder used to
// allocate the shape twice, as bytes and as float64s, before reading).
func TestForgedBinaryShapeAllocatesByBytesReceived(t *testing.T) {
	raw := make([]byte, 8+16)
	binary.LittleEndian.PutUint32(raw, maxBinaryCells/8)
	binary.LittleEndian.PutUint32(raw[4:], 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rows, err := decodeBinaryRows(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || rows != nil {
		t.Fatalf("truncated body decoded: %d rows, err %v", len(rows), err)
	}
	if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20); n > bound {
		t.Fatalf("forged %d-cell header allocated %d bytes (bound %d)", maxBinaryCells, n, bound)
	}
}
