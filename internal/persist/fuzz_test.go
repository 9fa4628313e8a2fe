package persist

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// fuzzChain builds the fixed base envelope of FuzzApplyDeltaChain (a
// versioned fake with a 4 KiB slab), the wire bytes of a three-link
// delta chain from it, and the chain's head envelope.
func fuzzChain(tb testing.TB) (base, wire, head []byte) {
	tb.Helper()
	f := newVersionedFake()
	f.state = f.state[:4<<10]
	rng := rand.New(rand.NewSource(5))
	save := func() []byte {
		var buf bytes.Buffer
		if err := Save(&buf, f); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	base = save()
	prev := base
	var out bytes.Buffer
	for i := 0; i < 3; i++ {
		f.mutate(rng)
		next := save()
		d, err := MakeDelta(prev, next)
		if err != nil {
			tb.Fatal(err)
		}
		if err := WriteDelta(&out, d); err != nil {
			tb.Fatal(err)
		}
		prev = next
	}
	return base, out.Bytes(), prev
}

// maxFuzzLinks caps the deltas one fuzz input may chain.
const maxFuzzLinks = 4

// linkBound is the most applying one parsed delta to a cur-byte base may
// allocate: the output's up-front chunk plus append growth over the
// bytes the opcodes can produce — at most ResultLen and one more op, and
// at most one base-long COPY per three patch bytes.
func linkBound(d *Delta, cur int) uint64 {
	r := uint64(d.Header.ResultLen)
	p, b := uint64(len(d.Patch)), uint64(cur)
	produced := min(r+max(b, p), (p/3+1)*b+p)
	return min(r, readChunk) + 3*produced
}

// FuzzApplyDeltaChain parses arbitrary bytes as a stream of delta
// envelopes and applies them to a fixed base envelope. Every input must
// yield either an error or an envelope matching the last link's
// ResultLen and ResultCRC (the chain's head, for the seed), never a
// panic, and must allocate no more than the bytes it carries and the
// results its links can produce.
func FuzzApplyDeltaChain(f *testing.F) {
	base, wire, head := fuzzChain(f)
	f.Add(wire)
	first, _, err := ReadDeltaRaw(bytes.NewReader(wire))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(first)
	f.Add(wire[:len(wire)/2])
	f.Add([]byte(DeltaMagic))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var deltas []*Delta
		var out []byte
		var err error
		// The read that ends the stream may take one up-front chunk.
		bound := uint64(1<<20 + readChunk + 8*len(raw) + 8*len(base))
		n := allocatedBy(func() {
			r := bytes.NewReader(raw)
			cur := len(base)
			for len(deltas) < maxFuzzLinks {
				d, rerr := ReadDelta(r)
				if rerr != nil {
					// A stream that ends between envelopes ends the chain.
					if len(deltas) == 0 || !errors.Is(rerr, io.EOF) {
						err = rerr
					}
					break
				}
				deltas = append(deltas, d)
				bound += min(uint64(d.Header.PatchLen), readChunk) + linkBound(d, cur)
				cur = int(d.Header.ResultLen)
			}
			if err == nil {
				out, err = ApplyChain(base, deltas...)
			}
		})
		if n > bound {
			t.Fatalf("%d input bytes over %d links allocated %d bytes (bound %d)", len(raw), len(deltas), n, bound)
		}
		if err != nil {
			return
		}
		last := deltas[len(deltas)-1].Header
		if int64(len(out)) != last.ResultLen || crc32.ChecksumIEEE(out) != last.ResultCRC {
			t.Fatalf("chain applied to %d bytes (crc %08x), last link pins %d bytes crc %08x",
				len(out), crc32.ChecksumIEEE(out), last.ResultLen, last.ResultCRC)
		}
		if last.ResultCRC == crc32.ChecksumIEEE(head) && !bytes.Equal(out, head) {
			t.Fatal("chain reconstructed the head's checksum but not its bytes")
		}
	})
}

// FuzzPatchRoundTrip checks the rolling diff on arbitrary (base, target)
// pairs: applying makePatch's output to base reproduces target exactly.
func FuzzPatchRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	slab := make([]byte, 3*deltaBlockSize)
	rng.Read(slab)
	moved := append(append([]byte("prefix"), slab[700:]...), slab[:100]...)
	f.Add(slab, moved)
	f.Add(slab, slab)
	f.Add([]byte{}, slab)
	f.Add(slab, []byte{})
	f.Add(vfdtBase[:4*deltaBlockSize], vfdtTarget[:4*deltaBlockSize])
	f.Fuzz(func(t *testing.T, base, target []byte) {
		patch := makePatch(base, target)
		got, err := applyPatch(base, patch, int64(len(target)))
		if err != nil {
			t.Fatalf("patch of a %d-byte base to a %d-byte target does not apply: %v", len(base), len(target), err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("patch of a %d-byte base reproduces a different %d-byte target", len(base), len(target))
		}
	})
}
