package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Encoder writes primitive values in a compact varint-based wire format.
// It buffers internally; call Flush before handing the underlying writer
// to anyone else.
type Encoder struct {
	w   *bufio.Writer
	tmp [binary.MaxVarintLen64]byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	if bw, ok := w.(*bufio.Writer); ok {
		return &Encoder{w: bw}
	}
	return &Encoder{w: bufio.NewWriterSize(w, 16<<10)}
}

// Reset discards unflushed state and redirects the Encoder to w, reusing
// the internal buffer. It lets pooled Encoders serve many destinations
// without reallocating their 16KiB write buffers.
func (e *Encoder) Reset(w io.Writer) {
	if bw, ok := w.(*bufio.Writer); ok {
		e.w = bw
		return
	}
	if e.w == nil {
		e.w = bufio.NewWriterSize(w, 16<<10)
		return
	}
	e.w.Reset(w)
}

// Flush writes any buffered data to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Uvarint writes an unsigned varint.
func (e *Encoder) Uvarint(v uint64) error {
	n := binary.PutUvarint(e.tmp[:], v)
	_, err := e.w.Write(e.tmp[:n])
	return err
}

// Varint writes a signed varint.
func (e *Encoder) Varint(v int64) error {
	n := binary.PutVarint(e.tmp[:], v)
	_, err := e.w.Write(e.tmp[:n])
	return err
}

// Float64 writes an IEEE-754 double.
func (e *Encoder) Float64(v float64) error {
	binary.LittleEndian.PutUint64(e.tmp[:8], math.Float64bits(v))
	_, err := e.w.Write(e.tmp[:8])
	return err
}

// Bytes writes a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) error {
	if err := e.Uvarint(uint64(len(b))); err != nil {
		return err
	}
	_, err := e.w.Write(b)
	return err
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) error {
	if err := e.Uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := e.w.WriteString(s)
	return err
}

// Byte writes a single byte.
func (e *Encoder) Byte(b byte) error { return e.w.WriteByte(b) }

// Float64s writes a length-prefixed slice of doubles.
func (e *Encoder) Float64s(v []float64) error {
	if err := e.Uvarint(uint64(len(v))); err != nil {
		return err
	}
	for _, f := range v {
		if err := e.Float64(f); err != nil {
			return err
		}
	}
	return nil
}

// byteReader is what a Decoder needs from its source. *bytes.Reader and
// *bufio.Reader both satisfy it, so in-memory decodes (the common case:
// DecodeAll over an already-received payload) skip the extra bufio layer
// and its 16KiB buffer allocation entirely.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// Decoder reads values produced by Encoder.
type Decoder struct {
	r   byteReader
	tmp [8]byte
}

// NewDecoder returns a Decoder reading from r. Sources that already
// support byte-at-a-time reads (*bytes.Reader, *bufio.Reader) are used
// directly; anything else — e.g. a network conn — is wrapped in a
// bufio.Reader.
func NewDecoder(r io.Reader) *Decoder {
	if br, ok := r.(byteReader); ok {
		return &Decoder{r: br}
	}
	return &Decoder{r: bufio.NewReaderSize(r, 16<<10)}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) { return binary.ReadUvarint(d.r) }

// Varint reads a signed varint.
func (d *Decoder) Varint() (int64, error) { return binary.ReadVarint(d.r) }

// Float64 reads a double.
func (d *Decoder) Float64() (float64, error) {
	if _, err := io.ReadFull(d.r, d.tmp[:8]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.tmp[:8])), nil
}

// Byte reads a single byte.
func (d *Decoder) Byte() (byte, error) { return d.r.ReadByte() }

// Bytes reads a length-prefixed byte slice. maxLen guards against corrupt
// streams; pass 0 for the 1GiB default. The slice grows as bytes arrive
// (see grow), so a declared length the stream does not back costs one
// readStep plus a small multiple of the bytes actually read, not the
// declared length.
func (d *Decoder) Bytes(maxLen int) ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	limit := uint64(maxLen)
	if limit == 0 {
		limit = 1 << 30
	}
	if n > limit {
		return nil, fmt.Errorf("data: length %d exceeds limit %d", n, limit)
	}
	b := []byte{}
	for uint64(len(b)) < n {
		read := len(b)
		b = grow(b, n, readStep)
		if _, err := io.ReadFull(d.r, b[read:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// String reads a length-prefixed string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes(0)
	return string(b), err
}

// Float64s reads a length-prefixed slice of doubles, growing the slice
// as values arrive like Bytes does.
func (d *Decoder) Float64s() ([]float64, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<27 {
		return nil, fmt.Errorf("data: float64 slice length %d too large", n)
	}
	v := []float64{}
	for uint64(len(v)) < n {
		i := len(v)
		for v = grow(v, n, readStep/8); i < len(v); i++ {
			if v[i], err = d.Float64(); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// readStep is the first allocation, in bytes, for a length-prefixed
// value whose length the stream has not yet backed with data.
const readStep = 64 << 10

// grow returns s extended toward n elements: to step on the first call,
// then doubling, never past n. Decoders fill each extension from the
// stream before growing again, so past the first step every allocation
// is at most twice the elements already read.
func grow[T any](s []T, n uint64, step int) []T {
	size := uint64(step)
	if len(s) > 0 {
		size = 2 * uint64(len(s))
	}
	if size > n {
		size = n
	}
	g := make([]T, size)
	copy(g, s)
	return g
}
