package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/stream"
)

// forgedFrame frames hdr exactly as Save and WriteDelta do — magic,
// big-endian header length, gob header — and appends no body, so every
// length the header declares is a lie the stream never backs.
func forgedFrame(t *testing.T, magic string, hdr any) []byte {
	t.Helper()
	var h bytes.Buffer
	if err := gob.NewEncoder(&h).Encode(hdr); err != nil {
		t.Fatal(err)
	}
	out := []byte(magic)
	out = binary.BigEndian.AppendUint32(out, uint32(h.Len()))
	return append(out, h.Bytes()...)
}

// allocatedBy reports the bytes the heap handed out while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A forged length field must cost at most a bounded up-front chunk, not
// the declared size: decoders of untrusted bytes (POST /v1/swap, replica
// fetches, dmtserve -checkpoint) allocate as bytes actually arrive.
func TestForgedLengthsAllocateByBytesReceived(t *testing.T) {
	const declared = 1 << 28 // 256 MiB claimed, zero bytes sent
	const bound = 16 << 20   // two up-front read chunks
	schema := stream.Schema{NumFeatures: 3, NumClasses: 2, Name: "forged"}
	cases := map[string]func() error{
		"envelope": func() error {
			raw := forgedFrame(t, Magic, Header{Version: FormatVersion, Model: "x", Schema: schema, PayloadLen: declared})
			_, err := ReadEnvelope(bytes.NewReader(raw))
			return err
		},
		"delta": func() error {
			raw := forgedFrame(t, DeltaMagic, DeltaHeader{Version: FormatVersion, Model: "x", PatchLen: declared, ResultLen: 1})
			_, err := ReadDelta(bytes.NewReader(raw))
			return err
		},
		"delta result": func() error {
			base := []byte("base envelope bytes")
			d := &Delta{Header: DeltaHeader{BaseLen: int64(len(base)), BaseCRC: crc32.ChecksumIEEE(base), ResultLen: declared}}
			_, err := d.Apply(base)
			return err
		},
	}
	for name, decode := range cases {
		var err error
		if n := allocatedBy(func() { err = decode() }); n > bound {
			t.Errorf("%s: forged %d-byte length allocated %d bytes (bound %d)", name, declared, n, bound)
		}
		if err == nil {
			t.Errorf("%s: forged length decoded without error", name)
		}
	}
}

// A result length outside [0, maxPayloadLen] is rejected, at read and at
// apply, instead of panicking in make.
func TestDeltaResultLenRejected(t *testing.T) {
	base := []byte("base envelope bytes")
	for _, n := range []int64{-1, maxPayloadLen + 1} {
		raw := forgedFrame(t, DeltaMagic, DeltaHeader{Version: FormatVersion, Model: "x", ResultLen: n})
		if _, err := ReadDelta(bytes.NewReader(raw)); err == nil {
			t.Errorf("ReadDelta accepted ResultLen %d", n)
		}
		d := &Delta{Header: DeltaHeader{BaseLen: int64(len(base)), BaseCRC: crc32.ChecksumIEEE(base), ResultLen: n}}
		if _, err := d.Apply(base); err == nil {
			t.Errorf("Apply accepted ResultLen %d", n)
		}
	}
}
