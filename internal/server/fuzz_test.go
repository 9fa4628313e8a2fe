package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
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

// jsonRowsSeeds are JSON request bodies: the single and batch fixtures
// the server tests send, with and without proba, plus bodies that must
// be refused — wrong widths, a null row, an overflowing number, a
// truncated object, a bare null and an empty body.
func jsonRowsSeeds() [][]byte {
	X, _ := seaRows(8, 23)
	var seeds [][]byte
	for _, v := range []any{
		predictRequest{X: X[0]},
		predictRequest{X: X[1], Proba: true},
		batchRequest{Rows: X},
		batchRequest{Rows: X[:3], Proba: true},
		batchRequest{Rows: [][]float64{}},
		predictRequest{X: X[0][:2]},
		batchRequest{Rows: [][]float64{X[0], {1, 2, 3, 4}}},
	} {
		raw, _ := json.Marshal(v)
		seeds = append(seeds, raw)
	}
	return append(seeds,
		[]byte(`{"rows":[[1,2,3],null]}`),
		[]byte(`{"x":[1e400,2,3]}`),
		seeds[2][:len(seeds[2])/2],
		[]byte(`null`),
		nil)
}

// FuzzDecodeJSONRows feeds arbitrary JSON bodies to /v1/predict and
// /v1/predict_batch. Each answer is a 200 carrying one prediction per
// decoded row, or a 400; no input may panic or reach the scorer with a
// row of the wrong width.
func FuzzDecodeJSONRows(f *testing.F) {
	sc := newTrainedScorer(f, 20)
	srv := New(sc, Config{CoalesceWindow: -1})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	schema := sc.Schema()
	for _, seed := range jsonRowsSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		post := func(path string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body)
			}
			return rec
		}
		if rec := post("/v1/predict"); rec.Code == http.StatusOK {
			var req predictRequest
			if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil || len(req.X) != schema.NumFeatures {
				t.Fatalf("predict accepted a body that does not decode to one %d-feature row: %v", schema.NumFeatures, err)
			}
			var resp predictResponse
			if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
				t.Fatal(err)
			}
			if resp.Y < 0 || resp.Y >= schema.NumClasses {
				t.Fatalf("predict answered class %d of %d", resp.Y, schema.NumClasses)
			}
		}
		if rec := post("/v1/predict_batch"); rec.Code == http.StatusOK {
			var req batchRequest
			if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil {
				t.Fatalf("predict_batch accepted a body that does not decode: %v", err)
			}
			for i, row := range req.Rows {
				if len(row) != schema.NumFeatures {
					t.Fatalf("predict_batch accepted row %d with %d features, model serves %d", i, len(row), schema.NumFeatures)
				}
			}
			var resp batchResponse
			if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Y) != len(req.Rows) || (req.Proba && len(resp.Proba) != len(req.Rows)) {
				t.Fatalf("predict_batch answered %d predictions (%d proba) for %d rows", len(resp.Y), len(resp.Proba), len(req.Rows))
			}
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
