package storage

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"pado/internal/data"
)

// allocSlack is the fixed allocation a decode may make beyond its
// per-byte share: one name or one chunk segment read ahead of a
// truncated input, plus small bookkeeping.
const allocSlack = 2*chunkSegment + 4*maxNameLen

// allocPerByte bounds what a decode may allocate per input byte read:
// each manifest part costs a slice header (24 bytes) per at least one
// byte, doubled by append growth.
const allocPerByte = 64

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func encodeManifest(t testing.TB, m *Manifest) []byte {
	var buf bytes.Buffer
	e := data.NewEncoder(&buf)
	if err := writeManifest(e, m); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// request encodes one client request stream: an op code followed by the
// fields it writes.
func request(t testing.TB, op byte, fields func(e *data.Encoder) error) []byte {
	var buf bytes.Buffer
	e := data.NewEncoder(&buf)
	if err := e.Byte(op); err != nil {
		t.Fatal(err)
	}
	if err := fields(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileCounts declares far more parts, chunks, or bytes than follow.
func hostileCounts() [][]byte {
	np := binary.AppendUvarint([]byte{0}, 1<<20)               // empty key, 2^20 parts, no data
	nc := binary.AppendUvarint([]byte{0, 1}, 1<<20)            // one part of 2^20 chunks
	key := binary.AppendUvarint(nil, 64<<20)                   // a 64 MiB key
	put := binary.AppendUvarint([]byte{opChunkPut, 0}, 64<<20) // a 64 MiB chunk payload
	commit := append([]byte{opCommit}, np...)                  // a commit of 2^20 parts
	return [][]byte{np, nc, key, put, commit}
}

func manifestSeeds(t testing.TB) [][]byte {
	h := []string{HashChunk([]byte("part zero chunk")), HashChunk([]byte("part one chunk a")),
		HashChunk([]byte("part one chunk b"))}
	return [][]byte{
		encodeManifest(t, &Manifest{Key: "stage/abc123", Parts: [][]string{{h[0]}, {h[1], h[2]}, {}}}),
		encodeManifest(t, &Manifest{Key: "task/k", Parts: [][]string{}}),
		encodeManifest(t, &Manifest{Key: "", Parts: [][]string{{}, {}}}),
	}
}

func opSeeds(t testing.TB) [][]byte {
	chunk := []byte("part one chunk a")
	hash := HashChunk(chunk)
	put := request(t, opChunkPut, func(e *data.Encoder) error {
		if err := e.String(hash); err != nil {
			return err
		}
		return writeChunk(e, chunk)
	})
	get := request(t, opChunkGet, func(e *data.Encoder) error { return e.String(hash) })
	commit := request(t, opCommit, func(e *data.Encoder) error {
		return writeManifest(e, &Manifest{Key: "stage/abc123", Parts: [][]string{{hash}, {}}})
	})
	resolve := request(t, opResolve, func(e *data.Encoder) error {
		if err := e.String("stage/abc123"); err != nil {
			return err
		}
		return e.Byte(1)
	})
	unpin := request(t, opUnpin, func(e *data.Encoder) error { return e.String("stage/abc123") })
	badHash := request(t, opChunkPut, func(e *data.Encoder) error {
		if err := e.String(HashChunk([]byte("other"))); err != nil {
			return err
		}
		return writeChunk(e, chunk)
	})
	round := bytes.Join([][]byte{put, get, commit, resolve, unpin}, nil)
	return [][]byte{put, get, commit, resolve, unpin, badHash, round}
}

// checkManifest decodes in and, when the manifest is accepted, checks
// that it re-encodes to a stable byte form that decodes back unchanged.
func checkManifest(t *testing.T, in []byte) {
	var m *Manifest
	var err error
	if n := allocated(func() { m, err = readManifest(data.NewDecoder(bytes.NewReader(in))) }); n > allocSlack+allocPerByte*uint64(len(in)) {
		t.Fatalf("decoding %d bytes allocated %d", len(in), n)
	}
	if err != nil {
		return
	}
	enc := encodeManifest(t, m)
	again, err := readManifest(data.NewDecoder(bytes.NewReader(enc)))
	if err != nil {
		t.Fatalf("re-encoded manifest does not decode: %v", err)
	}
	if !bytes.Equal(encodeManifest(t, again), enc) {
		t.Fatal("manifest encoding is not stable")
	}
	if again.Key != m.Key || len(again.Parts) != len(m.Parts) {
		t.Fatalf("round trip changed the manifest: %+v vs %+v", again, m)
	}
}

// checkOps serves the request stream in against a fresh store, op by op
// as a connection would, and checks the store invariants afterwards:
// every chunk sits under its content address and no commit dangles.
func checkOps(t *testing.T, in []byte) {
	svc := NewCommitService(NewCommitStore(), nil, 0)
	e := data.NewEncoder(io.Discard)
	n := allocated(func() {
		d := data.NewDecoder(bytes.NewReader(in))
		for {
			op, err := d.Byte()
			if err != nil || svc.handleOp(op, nil, e, d) != nil {
				return
			}
		}
	})
	// A stored chunk is copied once more into the store.
	if n > allocSlack+2*allocPerByte*uint64(len(in)) {
		t.Fatalf("serving %d bytes allocated %d", len(in), n)
	}
	st := svc.store
	for h, c := range st.chunks {
		if HashChunk(c.data) != h {
			t.Fatalf("chunk stored under %.12s is not its content address", h)
		}
	}
	for k, m := range st.manifests {
		for _, part := range m.Parts {
			for _, h := range part {
				if !st.HasChunk(h) {
					t.Fatalf("commit %q references unstored chunk %.12s", k, h)
				}
			}
		}
	}
}

func FuzzReadManifest(f *testing.F) {
	for _, in := range append(manifestSeeds(f), hostileCounts()...) {
		f.Add(in)
	}
	f.Fuzz(checkManifest)
}

func FuzzHandleOp(f *testing.F) {
	for _, in := range append(opSeeds(f), hostileCounts()...) {
		f.Add(in)
	}
	f.Fuzz(checkOps)
}

// TestDecodersBoundAllocation: declared part, chunk and byte counts used
// to size allocations before any entry was read — 2^20 parts cost 24 MiB
// for a 4-byte input, and a length prefix cost its full length.
func TestDecodersBoundAllocation(t *testing.T) {
	for _, in := range hostileCounts() {
		checkManifest(t, in)
		checkOps(t, in)
	}
}

// TestChunkSegmentsRoundTrip: payloads on and around segment boundaries
// survive writeChunk/readChunk, and a payload shorter than a segment is
// an ordinary length-prefixed byte string on the wire.
func TestChunkSegmentsRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, chunkSegment - 1, chunkSegment, chunkSegment + 1, 3*chunkSegment + 7} {
		payload := bytes.Repeat([]byte{byte(n)}, n)
		var buf bytes.Buffer
		e := data.NewEncoder(&buf)
		if err := writeChunk(e, payload); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		wire := append([]byte(nil), buf.Bytes()...)
		got, err := readChunk(data.NewDecoder(bytes.NewReader(wire)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d bytes: round trip gave %d bytes, %v", n, len(got), err)
		}
		if n < chunkSegment {
			plain, err := data.NewDecoder(bytes.NewReader(wire)).Bytes(0)
			if err != nil || !bytes.Equal(plain, payload) {
				t.Fatalf("%d bytes: short payload is not a plain byte string", n)
			}
		}
	}
}
