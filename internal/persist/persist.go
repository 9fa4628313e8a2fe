// Package persist implements the registry-wide model checkpoint format
// behind repro.Save / repro.Load: a versioned, self-describing envelope
// around each learner's private state payload. The envelope records the
// model's registered name, its stream schema, the resolved ModelParams
// (when the learner reports them) and a payload checksum, so Load can
// reconstruct any registered model from the bytes alone — the registry
// resolves the LoadState factory from the envelope's model name, exactly
// as registry.New resolves construction factories from a string.
//
// Wire layout (all sizes exact, so envelopes may be stacked on one
// stream — the sharded scorer writes one per replica):
//
//	magic   [8]byte  "REPROCKP"
//	hlen    uint32   big-endian length of the gob-encoded header
//	header  gob      {Version, Model, Schema, Params, PayloadLen, PayloadCRC}
//	payload [PayloadLen]byte  model-private (see model.Checkpointer)
//
// Format version 1 is the legacy bare-gob DMT document that predates the
// envelope; it has no magic and only repro.LoadDMT / core.Load read it.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stream"
)

// Magic identifies a checkpoint envelope.
const Magic = "REPROCKP"

// FormatVersion is the envelope format this build writes. Version 1 is
// the pre-envelope legacy DMT gob document.
const FormatVersion = 2

// maxHeaderLen and maxPayloadLen bound the framed sections so a corrupt
// length field cannot make Load attempt an absurd allocation (the
// largest real checkpoints — wide ensembles with full E-BST observers —
// are tens of megabytes).
const (
	maxHeaderLen  = 1 << 20
	maxPayloadLen = 1 << 31
)

// readChunk is the most a decoder allocates before the bytes it reads
// arrive: a length field is untrusted, so payload and patch buffers grow
// with the stream instead of trusting the declared size. Real envelopes
// below it (most are well under a megabyte) still take one allocation.
const readChunk = 8 << 20

// readBody reads exactly n bytes from r into a buffer that grows as the
// bytes arrive, so a forged n costs at most readChunk up front. A stream
// that ends early yields io.ErrUnexpectedEOF (io.EOF when it was empty).
func readBody(r io.Reader, n int64) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for int64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(n-int64(len(buf)), int64(len(buf)))))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(int64(cap(buf)), n)])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// Header is the self-describing metadata of one checkpoint envelope.
type Header struct {
	// Version is the envelope format version (FormatVersion when written
	// by this build).
	Version int
	// Model is the registered model name the payload belongs to; Load
	// resolves the LoadState factory from it.
	Model string
	// Schema is the stream schema the model was built for.
	Schema stream.Schema
	// Params is the resolved ModelParams bag the model reports via
	// registry.ParamsReporter (zero when the learner does not report).
	Params registry.Params
	// PayloadLen and PayloadCRC frame and checksum the payload bytes.
	PayloadLen int64
	PayloadCRC uint32
	// StructVersion records the model's StructureVersion at save time;
	// HasStructVersion distinguishes a genuine zero from a model that
	// reports no version. Delta envelopes (see delta.go) key their chains
	// on it. Gob tolerates the added fields in both directions, so the
	// format version stays 2.
	StructVersion    uint64
	HasStructVersion bool
}

// Envelope is one decoded checkpoint: the header plus the verified
// payload bytes.
type Envelope struct {
	Header  Header
	Payload []byte
}

// Save writes c as a checkpoint envelope. c must implement
// model.Checkpointer (every registered learner does) and its Name must
// have a registered loader, so the checkpoint is guaranteed loadable by
// the matching build.
func Save(w io.Writer, c model.Classifier) error {
	ck, ok := c.(model.Checkpointer)
	if !ok {
		return fmt.Errorf("persist: %s does not implement model.Checkpointer", c.Name())
	}
	name := c.Name()
	if !registry.HasLoader(name) {
		return fmt.Errorf("persist: model %q has no registered checkpoint loader", name)
	}
	// The schema is mandatory: Load validates it before resolving the
	// loader, so a model that cannot report one would write checkpoints
	// that are never loadable — fail the write instead.
	sp, ok := c.(interface{ Schema() stream.Schema })
	if !ok {
		return fmt.Errorf("persist: %s does not expose Schema() stream.Schema, required for the checkpoint envelope", name)
	}
	schema := sp.Schema()
	if err := schema.Validate(); err != nil {
		return fmt.Errorf("persist: %s schema: %w", name, err)
	}
	var payload bytes.Buffer
	if err := ck.SaveState(&payload); err != nil {
		return fmt.Errorf("persist: save %s state: %w", name, err)
	}
	h := Header{
		Version:    FormatVersion,
		Model:      name,
		Schema:     schema,
		PayloadLen: int64(payload.Len()),
		PayloadCRC: crc32.ChecksumIEEE(payload.Bytes()),
	}
	if pr, ok := c.(registry.ParamsReporter); ok {
		h.Params = pr.CheckpointParams()
	}
	if sv, ok := c.(model.StructureVersioner); ok {
		h.StructVersion = sv.StructureVersion()
		h.HasStructVersion = true
	}
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(h); err != nil {
		return fmt.Errorf("persist: encode header: %w", err)
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		return fmt.Errorf("persist: write magic: %w", err)
	}
	var hlen [4]byte
	binary.BigEndian.PutUint32(hlen[:], uint32(hdr.Len()))
	if _, err := w.Write(hlen[:]); err != nil {
		return fmt.Errorf("persist: write header length: %w", err)
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("persist: write header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("persist: write payload: %w", err)
	}
	return nil
}

// ReadEnvelope reads exactly one envelope from r, verifying magic,
// version and payload checksum. It consumes precisely the envelope's
// bytes, so callers may read several envelopes off one stream.
func ReadEnvelope(r io.Reader) (*Envelope, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("persist: read magic: %w (truncated or not a checkpoint)", err)
	}
	if string(magic[:]) != Magic {
		return nil, fmt.Errorf("persist: bad magic %q: not a model checkpoint envelope (a legacy DMT gob checkpoint loads through repro.LoadDMT)", magic[:])
	}
	var hlenBuf [4]byte
	if _, err := io.ReadFull(r, hlenBuf[:]); err != nil {
		return nil, fmt.Errorf("persist: read header length: %w (truncated checkpoint)", err)
	}
	hlen := binary.BigEndian.Uint32(hlenBuf[:])
	if hlen == 0 || hlen > maxHeaderLen {
		return nil, fmt.Errorf("persist: implausible header length %d: corrupt checkpoint", hlen)
	}
	hdr := make([]byte, hlen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("persist: read header: %w (truncated checkpoint)", err)
	}
	var h Header
	if err := gob.NewDecoder(bytes.NewReader(hdr)).Decode(&h); err != nil {
		return nil, fmt.Errorf("persist: decode header: %w (corrupt checkpoint)", err)
	}
	if h.Version > FormatVersion {
		return nil, fmt.Errorf("persist: checkpoint format version %d is newer than this build supports (max %d) — upgrade the library to load it", h.Version, FormatVersion)
	}
	if h.Version < FormatVersion {
		return nil, fmt.Errorf("persist: checkpoint format version %d predates the envelope format %d (legacy DMT gob checkpoints load through repro.LoadDMT)", h.Version, FormatVersion)
	}
	if h.PayloadLen < 0 || h.PayloadLen > maxPayloadLen {
		return nil, fmt.Errorf("persist: implausible payload length %d: corrupt checkpoint", h.PayloadLen)
	}
	payload, err := readBody(r, h.PayloadLen)
	if err != nil {
		return nil, fmt.Errorf("persist: read payload (%d bytes): %w (truncated checkpoint)", h.PayloadLen, err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != h.PayloadCRC {
		return nil, fmt.Errorf("persist: payload checksum mismatch (got %08x, header says %08x): corrupt checkpoint", crc, h.PayloadCRC)
	}
	return &Envelope{Header: h, Payload: payload}, nil
}

// ReadRaw reads exactly one envelope off r — any reader, not just a
// file: an HTTP body, a pipe, a stacked checkpoint stream — returning
// its verbatim wire bytes alongside the decoded header. The bytes are
// fully validated (magic, version, header decode, payload checksum)
// before they are returned, so a relay can cache and re-serve them
// without ever reconstructing the model: this is what the network
// serving tier's trainer→replica envelope streaming is built on. Like
// ReadEnvelope it consumes precisely the envelope's bytes.
func ReadRaw(r io.Reader) ([]byte, Header, error) {
	var buf bytes.Buffer
	env, err := ReadEnvelope(io.TeeReader(r, &buf))
	if err != nil {
		return nil, Header{}, err
	}
	return buf.Bytes(), env.Header, nil
}

// Load reads one envelope and reconstructs the model it describes via
// the loader registered under the envelope's model name. The caller
// never names a type: the envelope is fully self-describing.
func Load(r io.Reader) (model.Classifier, error) {
	env, err := ReadEnvelope(r)
	if err != nil {
		return nil, err
	}
	return LoadEnvelope(env)
}

// LoadEnvelope reconstructs the model of an already-read envelope.
func LoadEnvelope(env *Envelope) (model.Classifier, error) {
	h := env.Header
	if err := h.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("persist: checkpoint schema: %w", err)
	}
	loader, ok := registry.LoaderFor(h.Model)
	if !ok {
		return nil, fmt.Errorf("persist: no checkpoint loader registered for model %q (registered loaders handle every repro.Models entry; external learners must registry.RegisterLoader)", h.Model)
	}
	c, err := loader(h.Schema, h.Params, bytes.NewReader(env.Payload))
	if err != nil {
		return nil, fmt.Errorf("persist: load %s: %w", h.Model, err)
	}
	if c.Name() != h.Model {
		return nil, fmt.Errorf("persist: loader for %q reconstructed a model named %q: checkpoint/registration mismatch", h.Model, c.Name())
	}
	return c, nil
}

// SniffEnvelope reports whether the next bytes of a buffered reader
// start a checkpoint envelope (as opposed to, e.g., a legacy bare-gob
// DMT document). It does not consume input.
func SniffEnvelope(br *bufio.Reader) bool {
	peek, err := br.Peek(len(Magic))
	return err == nil && string(peek) == Magic
}
