package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
)

// Delta envelopes: incremental checkpoints beside the full "REPROCKP"
// format. A delta is a binary patch from one full envelope's wire bytes
// to another's, keyed by the models' StructureVersions, so a serving
// replica or a resume can catch up from its last known state instead of
// transferring full state. Applying a base plus its delta chain is
// byte-identical to the full save at the head version — the per-delta
// base/result CRCs enforce it, the version keys detect gaps and
// reordering before any patching happens.
//
// Wire layout (exact sizes, so deltas stack on one stream and mix with
// full envelopes, distinguished by magic):
//
//	magic   [8]byte  "REPRODLT"
//	hlen    uint32   big-endian length of the gob-encoded header
//	header  gob      DeltaHeader
//	patch   [PatchLen]byte  COPY/ADD opcodes over the base's wire bytes
//
// The patch is an rsync-style block diff: the base is indexed by a weak
// rolling checksum over fixed blocks, the target is scanned with the
// rolling window, and every candidate match is verified byte-for-byte
// before a COPY is emitted — content-defined, so it works uniformly
// across the heterogeneous gob payloads of every registered learner
// without knowing their structure.

// DeltaMagic identifies a delta envelope.
const DeltaMagic = "REPRODLT"

// deltaBlockSize is the rolling-diff block granularity. Small enough to
// catch the locality of one structural change inside a gob payload,
// large enough that the per-block table stays cheap.
const deltaBlockSize = 512

// Patch opcodes: COPY re-uses a byte range of the base, ADD carries
// literal target bytes.
const (
	opCopy = 1
	opAdd  = 2
)

// DeltaHeader is the self-describing metadata of one delta envelope.
type DeltaHeader struct {
	// Version is the envelope format version (FormatVersion).
	Version int
	// Model is the registered model name both endpoints belong to.
	Model string
	// BaseVersion and TargetVersion key the chain: a delta applies only
	// to the full envelope saved at BaseVersion and produces the full
	// envelope saved at TargetVersion.
	BaseVersion   uint64
	TargetVersion uint64
	// BaseLen and BaseCRC pin the exact base bytes the patch was computed
	// against; applying to anything else is rejected before patching.
	BaseLen int64
	BaseCRC uint32
	// PatchLen and PatchCRC frame and checksum the patch bytes.
	PatchLen int64
	PatchCRC uint32
	// ResultLen and ResultCRC pin the reconstructed full envelope, so a
	// successful apply is guaranteed byte-identical to the full save.
	ResultLen int64
	ResultCRC uint32
}

// Delta is one decoded delta envelope.
type Delta struct {
	Header DeltaHeader
	Patch  []byte
}

// MakeDelta computes the delta between two full checkpoint envelopes
// given as their verbatim wire bytes (as produced by Save or returned by
// ReadRaw). Both must be valid envelopes of the same model.
func MakeDelta(base, target []byte) (*Delta, error) {
	_, bh, err := ReadRaw(bytes.NewReader(base))
	if err != nil {
		return nil, fmt.Errorf("persist: delta base: %w", err)
	}
	_, th, err := ReadRaw(bytes.NewReader(target))
	if err != nil {
		return nil, fmt.Errorf("persist: delta target: %w", err)
	}
	if bh.Model != th.Model {
		return nil, fmt.Errorf("persist: delta endpoints disagree on model: base %q, target %q", bh.Model, th.Model)
	}
	patch := makePatch(base, target)
	return &Delta{
		Header: DeltaHeader{
			Version:       FormatVersion,
			Model:         th.Model,
			BaseVersion:   bh.StructVersion,
			TargetVersion: th.StructVersion,
			BaseLen:       int64(len(base)),
			BaseCRC:       crc32.ChecksumIEEE(base),
			PatchLen:      int64(len(patch)),
			PatchCRC:      crc32.ChecksumIEEE(patch),
			ResultLen:     int64(len(target)),
			ResultCRC:     crc32.ChecksumIEEE(target),
		},
		Patch: patch,
	}, nil
}

// WriteDelta writes one delta envelope.
func WriteDelta(w io.Writer, d *Delta) error {
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(d.Header); err != nil {
		return fmt.Errorf("persist: encode delta header: %w", err)
	}
	if _, err := io.WriteString(w, DeltaMagic); err != nil {
		return fmt.Errorf("persist: write delta magic: %w", err)
	}
	var hlen [4]byte
	binary.BigEndian.PutUint32(hlen[:], uint32(hdr.Len()))
	if _, err := w.Write(hlen[:]); err != nil {
		return fmt.Errorf("persist: write delta header length: %w", err)
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("persist: write delta header: %w", err)
	}
	if _, err := w.Write(d.Patch); err != nil {
		return fmt.Errorf("persist: write delta patch: %w", err)
	}
	return nil
}

// ReadDelta reads exactly one delta envelope from r, verifying magic,
// version and patch checksum. Like ReadEnvelope it consumes precisely
// the envelope's bytes, so full and delta envelopes stack on one stream.
func ReadDelta(r io.Reader) (*Delta, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("persist: read delta magic: %w (truncated or not a delta)", err)
	}
	if string(magic[:]) != DeltaMagic {
		return nil, fmt.Errorf("persist: bad delta magic %q: not a delta envelope (full checkpoints start with %q)", magic[:], Magic)
	}
	var hlenBuf [4]byte
	if _, err := io.ReadFull(r, hlenBuf[:]); err != nil {
		return nil, fmt.Errorf("persist: read delta header length: %w (truncated delta)", err)
	}
	hlen := binary.BigEndian.Uint32(hlenBuf[:])
	if hlen == 0 || hlen > maxHeaderLen {
		return nil, fmt.Errorf("persist: implausible delta header length %d: corrupt delta", hlen)
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("persist: read delta header: %w (truncated delta)", err)
	}
	var h DeltaHeader
	if err := gob.NewDecoder(bytes.NewReader(hdr)).Decode(&h); err != nil {
		return nil, fmt.Errorf("persist: decode delta header: %w (corrupt delta)", err)
	}
	if h.Version > FormatVersion {
		return nil, fmt.Errorf("persist: delta format version %d is newer than this build supports (max %d)", h.Version, FormatVersion)
	}
	if h.PatchLen < 0 || h.PatchLen > maxPayloadLen {
		return nil, fmt.Errorf("persist: implausible delta patch length %d: corrupt delta", h.PatchLen)
	}
	if h.ResultLen < 0 || h.ResultLen > maxPayloadLen {
		return nil, fmt.Errorf("persist: implausible delta result length %d: corrupt delta", h.ResultLen)
	}
	patch, err := readBody(r, h.PatchLen)
	if err != nil {
		return nil, fmt.Errorf("persist: read delta patch (%d bytes): %w (truncated delta)", h.PatchLen, err)
	}
	if crc := crc32.ChecksumIEEE(patch); crc != h.PatchCRC {
		return nil, fmt.Errorf("persist: delta patch checksum mismatch (got %08x, header says %08x): corrupt delta", crc, h.PatchCRC)
	}
	return &Delta{Header: h, Patch: patch}, nil
}

// ReadDeltaRaw reads exactly one delta envelope off r, returning its
// verbatim, fully validated wire bytes alongside the decoded header —
// the relay primitive behind the server's delta-chain responses.
func ReadDeltaRaw(r io.Reader) ([]byte, DeltaHeader, error) {
	var buf bytes.Buffer
	d, err := ReadDelta(io.TeeReader(r, &buf))
	if err != nil {
		return nil, DeltaHeader{}, err
	}
	return buf.Bytes(), d.Header, nil
}

// SniffDelta reports whether the next bytes of a buffered reader start a
// delta envelope. It does not consume input.
func SniffDelta(br *bufio.Reader) bool {
	peek, err := br.Peek(len(DeltaMagic))
	return err == nil && string(peek) == DeltaMagic
}

// Apply patches base (the verbatim wire bytes of the full envelope this
// delta was computed against) into the target full envelope, verifying
// the base pin before patching and the result checksum after.
func (d *Delta) Apply(base []byte) ([]byte, error) {
	h := d.Header
	if h.ResultLen < 0 || h.ResultLen > maxPayloadLen {
		return nil, fmt.Errorf("persist: delta %d→%d: implausible result length %d", h.BaseVersion, h.TargetVersion, h.ResultLen)
	}
	if int64(len(base)) != h.BaseLen || crc32.ChecksumIEEE(base) != h.BaseCRC {
		return nil, fmt.Errorf("persist: delta %d→%d does not apply: base is not the envelope it was computed against (want %d bytes crc %08x, have %d bytes crc %08x)",
			h.BaseVersion, h.TargetVersion, h.BaseLen, h.BaseCRC, len(base), crc32.ChecksumIEEE(base))
	}
	out, err := applyPatch(base, d.Patch, h.ResultLen)
	if err != nil {
		return nil, fmt.Errorf("persist: delta %d→%d: %w", h.BaseVersion, h.TargetVersion, err)
	}
	if crc := crc32.ChecksumIEEE(out); crc != h.ResultCRC {
		return nil, fmt.Errorf("persist: delta %d→%d result checksum mismatch (got %08x, header says %08x): corrupt delta", h.BaseVersion, h.TargetVersion, crc, h.ResultCRC)
	}
	return out, nil
}

// ApplyChain applies a chain of deltas to a base full envelope with
// strict validation: the first delta must base on the base envelope's
// StructureVersion, every later delta must base on its predecessor's
// target, and each step's base/result CRCs must hold. The returned bytes
// are byte-identical to the full save at the head version.
func ApplyChain(base []byte, deltas ...*Delta) ([]byte, error) {
	if len(deltas) == 0 {
		return base, nil
	}
	_, bh, err := ReadRaw(bytes.NewReader(base))
	if err != nil {
		return nil, fmt.Errorf("persist: delta chain base: %w", err)
	}
	if first := deltas[0].Header; first.BaseVersion != bh.StructVersion {
		return nil, fmt.Errorf("persist: delta chain does not start at the base envelope: base is version %d but the first delta expects version %d (version gap)",
			bh.StructVersion, first.BaseVersion)
	}
	cur := base
	for i, d := range deltas {
		if i > 0 {
			prev := deltas[i-1].Header.TargetVersion
			switch h := d.Header; {
			case h.BaseVersion < prev:
				return nil, fmt.Errorf("persist: delta chain out of order: delta %d bases on version %d but the previous delta already produced version %d",
					i, h.BaseVersion, prev)
			case h.BaseVersion > prev:
				return nil, fmt.Errorf("persist: delta chain has a version gap: delta %d bases on version %d but the previous delta only reached version %d",
					i, h.BaseVersion, prev)
			}
		}
		next, err := d.Apply(cur)
		if err != nil {
			return nil, fmt.Errorf("persist: delta chain link %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}

// weakSum is the rolling Adler-style checksum of one block: a is the
// byte sum, b the sum of prefix sums, both mod 2^16.
func weakSum(p []byte) (a, b uint32) {
	for _, c := range p {
		a += uint32(c)
		b += a
	}
	return a & 0xffff, b & 0xffff
}

// makePatch computes the COPY/ADD opcode stream turning base into
// target: base blocks are indexed by weak checksum, target is scanned
// with a rolling window, candidate matches verify byte-for-byte and
// extend greedily past the block boundary.
func makePatch(base, target []byte) []byte {
	const bs = deltaBlockSize
	table := make(map[uint32][]int, len(base)/bs)
	for off := 0; off+bs <= len(base); off += bs {
		a, b := weakSum(base[off : off+bs])
		key := a | b<<16
		table[key] = append(table[key], off)
	}

	var out bytes.Buffer
	var num [binary.MaxVarintLen64]byte
	litStart := 0 // start of the pending literal run in target

	flushLit := func(end int) {
		if end <= litStart {
			return
		}
		out.WriteByte(opAdd)
		n := binary.PutUvarint(num[:], uint64(end-litStart))
		out.Write(num[:n])
		out.Write(target[litStart:end])
	}

	i := 0
	if len(table) > 0 && len(target) >= bs {
		a, b := weakSum(target[:bs])
		for i+bs <= len(target) {
			key := a | b<<16
			matched := false
			for _, off := range table[key] {
				if !bytes.Equal(base[off:off+bs], target[i:i+bs]) {
					continue
				}
				// Extend the verified block match as far as it goes.
				n := bs
				for off+n < len(base) && i+n < len(target) && base[off+n] == target[i+n] {
					n++
				}
				flushLit(i)
				out.WriteByte(opCopy)
				k := binary.PutUvarint(num[:], uint64(off))
				out.Write(num[:k])
				k = binary.PutUvarint(num[:], uint64(n))
				out.Write(num[:k])
				i += n
				litStart = i
				if i+bs <= len(target) {
					a, b = weakSum(target[i : i+bs])
				}
				matched = true
				break
			}
			if matched {
				continue
			}
			// Roll the window one byte forward.
			outByte := uint32(target[i])
			a = (a - outByte) & 0xffff
			b = (b - uint32(bs)*outByte) & 0xffff
			if i+bs < len(target) {
				inByte := uint32(target[i+bs])
				a = (a + inByte) & 0xffff
				b = (b + a) & 0xffff
			}
			i++
		}
	}
	flushLit(len(target))
	return out.Bytes()
}

// applyPatch replays a COPY/ADD opcode stream against base. The output
// grows with the bytes the opcodes produce (at most readChunk up front)
// and stops as soon as it passes resultLen.
func applyPatch(base, patch []byte, resultLen int64) ([]byte, error) {
	out := make([]byte, 0, min(resultLen, readChunk))
	p := patch
	for len(p) > 0 {
		op := p[0]
		p = p[1:]
		switch op {
		case opCopy:
			off, n := binary.Uvarint(p)
			if n <= 0 {
				return nil, fmt.Errorf("patch truncated in COPY offset")
			}
			p = p[n:]
			length, n := binary.Uvarint(p)
			if n <= 0 {
				return nil, fmt.Errorf("patch truncated in COPY length")
			}
			p = p[n:]
			end := off + length
			if end < off || end > uint64(len(base)) {
				return nil, fmt.Errorf("patch COPY [%d:%d) outside base (%d bytes)", off, end, len(base))
			}
			out = append(out, base[off:end]...)
		case opAdd:
			length, n := binary.Uvarint(p)
			if n <= 0 {
				return nil, fmt.Errorf("patch truncated in ADD length")
			}
			p = p[n:]
			if length > uint64(len(p)) {
				return nil, fmt.Errorf("patch truncated in ADD literal (want %d bytes, have %d)", length, len(p))
			}
			out = append(out, p[:length]...)
			p = p[length:]
		default:
			return nil, fmt.Errorf("patch has unknown opcode %d", op)
		}
		if int64(len(out)) > resultLen {
			return nil, fmt.Errorf("patch produced more than the %d bytes the header says", resultLen)
		}
	}
	if int64(len(out)) != resultLen {
		return nil, fmt.Errorf("patch produced %d bytes, header says %d", len(out), resultLen)
	}
	return out, nil
}
