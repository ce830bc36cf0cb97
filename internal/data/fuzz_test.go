package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// allocSlack is the fixed allocation a decode may make beyond its
// per-byte share: the first readStep of a length-prefixed value read
// ahead of a truncated input, plus small bookkeeping.
const allocSlack = 2*readStep + 4<<10

// allocPerByte bounds what a decode may allocate per input byte: a
// record costs at least one byte and at most a 32-byte Record slot plus
// a boxed key and value, and a grown value at most twice its bytes.
const allocPerByte = 96

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzCoders are the record coders FuzzDecodeAll decodes with; an
// input's first byte picks one. Each costs at least one byte per record,
// so a record count cannot outrun the input.
var fuzzCoders = []Coder{
	KVCoder{K: StringCoder, V: Int64Coder},
	KVCoder{K: NilCoder, V: Float64sCoder},
	KVCoder{K: BytesCoder, V: Float64Coder},
	KVCoder{K: Int64Coder, V: StringCoder},
}

// fuzzInput prefixes an EncodeAll payload with the index of its coder.
func fuzzInput(t testing.TB, coder int, recs []Record) []byte {
	payload, err := EncodeAll(fuzzCoders[coder], recs)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{byte(coder)}, payload...)
}

func decodeSeeds(t testing.TB) [][]byte {
	return [][]byte{
		fuzzInput(t, 0, []Record{KV("a", int64(1)), KV("", int64(-5)), KV("日本語", int64(1<<60))}),
		fuzzInput(t, 0, nil),
		fuzzInput(t, 1, []Record{{Value: []float64{}},
			{Value: []float64{1.5, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64}}}),
		fuzzInput(t, 2, []Record{KV([]byte("key"), 2.5), KV([]byte{}, math.Inf(-1))}),
		fuzzInput(t, 3, []Record{KV(int64(7), "seven"), KV(int64(-1), "")}),
	}
}

// hostileLengths declare far more records, bytes or doubles than follow.
func hostileLengths() [][]byte {
	return [][]byte{
		binary.AppendUvarint([]byte{0}, 1<<40),                                     // 2^40 records
		binary.AppendUvarint([]byte{0, 1}, 64<<20),                                 // one record, a 64 MiB key
		binary.AppendUvarint([]byte{1, 1}, 8<<20),                                  // one record of 2^23 doubles
		binary.AppendUvarint([]byte{2, 2, 1, 'k', 0, 0, 0, 0, 0, 0, 0, 0}, 64<<20), // second record's 64 MiB key
	}
}

// checkDecodeAll decodes in and, when it is accepted, checks that the
// records re-encode to a stable byte form.
func checkDecodeAll(t *testing.T, in []byte) {
	if len(in) == 0 {
		return
	}
	c := fuzzCoders[int(in[0])%len(fuzzCoders)]
	var recs []Record
	var err error
	if n := allocated(func() { recs, err = DecodeAll(c, in[1:]) }); n > allocSlack+allocPerByte*uint64(len(in)) {
		t.Fatalf("decoding %d bytes allocated %d", len(in), n)
	}
	if err != nil {
		return
	}
	enc, err := EncodeAll(c, recs)
	if err != nil {
		t.Fatalf("decoded records do not re-encode: %v", err)
	}
	again, err := DecodeAll(c, enc)
	if err != nil {
		t.Fatalf("re-encoded records do not decode: %v", err)
	}
	if len(again) != len(recs) {
		t.Fatalf("round trip changed the record count: %d vs %d", len(again), len(recs))
	}
	enc2, err := EncodeAll(c, again)
	if err != nil || !bytes.Equal(enc2, enc) {
		t.Fatalf("record encoding is not stable (%v)", err)
	}
}

func FuzzDecodeAll(f *testing.F) {
	for _, in := range append(decodeSeeds(f), hostileLengths()...) {
		f.Add(in)
	}
	f.Fuzz(checkDecodeAll)
}

// TestDecoderBoundsAllocation: a length prefix used to size its
// allocation before any byte of the value was read, so a 4-byte input
// declaring 64 MiB allocated 64 MiB.
func TestDecoderBoundsAllocation(t *testing.T) {
	for name, tc := range map[string]struct {
		declared uint64
		decode   func(*Decoder) error
	}{
		"Bytes":    {64 << 20, func(d *Decoder) error { _, err := d.Bytes(0); return err }},
		"String":   {64 << 20, func(d *Decoder) error { _, err := d.String(); return err }},
		"Float64s": {8 << 20, func(d *Decoder) error { _, err := d.Float64s(); return err }},
	} {
		in := binary.AppendUvarint(nil, tc.declared)
		if len(in) != 4 {
			t.Fatalf("%s: input is %d bytes, want 4", name, len(in))
		}
		var err error
		n := allocated(func() { err = tc.decode(NewDecoder(bytes.NewReader(in))) })
		if err == nil {
			t.Errorf("%s: decoding a length with no data behind it succeeded", name)
		}
		if n > allocSlack {
			t.Errorf("%s: a 4-byte input allocated %d bytes", name, n)
		}
	}
	for _, in := range hostileLengths() {
		checkDecodeAll(t, in)
	}
}

// TestDecoderGrowsToLength: values around and past one readStep decode
// to their exact length.
func TestDecoderGrowsToLength(t *testing.T) {
	for _, n := range []int{0, 1, readStep - 1, readStep, readStep + 1, 5*readStep + 3} {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		payload := bytes.Repeat([]byte{byte(n)}, n)
		floats := make([]float64, n/8)
		for i := range floats {
			floats[i] = float64(i)
		}
		if e.Bytes(payload) != nil || e.Float64s(floats) != nil || e.Flush() != nil {
			t.Fatal("encode failed")
		}
		d := NewDecoder(bytes.NewReader(buf.Bytes()))
		got, err := d.Bytes(0)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d bytes: got %d bytes, %v", n, len(got), err)
		}
		gotF, err := d.Float64s()
		if err != nil || len(gotF) != len(floats) || (len(floats) > 0 && gotF[len(floats)-1] != floats[len(floats)-1]) {
			t.Fatalf("%d doubles: got %d, %v", len(floats), len(gotF), err)
		}
	}
}
