package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.AppendVarint(b, -1)
	b = binary.LittleEndian.AppendUint64(b, 0x0102030405060708)
	b = AppendString(b, "")
	b = AppendString(b, "naïve — 日本語")
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = append(b, 0x7f)

	r := NewReader(b)
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Int(); got != -1 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Uint64(); got != 0x0102030405060708 {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "naïve — 日本語" {
		t.Errorf("String = %q", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if r.Len() != 1 || r.Finish() == nil {
		t.Errorf("Finish accepted %d trailing bytes", r.Len())
	}
	if got := r.Byte(); got != 0x7f || r.Finish() != nil {
		t.Errorf("Byte = %#x, Finish = %v", got, r.Finish())
	}
}

// TestUvarintMatchesEncodingBinary: the reader's varint decoding agrees with
// the standard library's on random values and on every malformed shape.
func TestUvarintMatchesEncodingBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := rng.Uint64() >> uint(rng.Intn(64))
		r := NewReader(binary.AppendUvarint(nil, v))
		if got := r.Uvarint(); got != v || r.Finish() != nil {
			t.Fatalf("Uvarint(%d) = %d, %v", v, got, r.Finish())
		}
	}
	for _, bad := range [][]byte{
		{},
		{0x80},
		{0xff, 0xff, 0xff},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // overflows 64 bits
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // eleven bytes
	} {
		r := NewReader(bad)
		_, n := binary.Uvarint(bad)
		if got := r.Uvarint(); got != 0 || r.Err() == nil || n > 0 {
			t.Errorf("Uvarint(% x) = %d, err %v (encoding/binary read %d bytes)", bad, got, r.Err(), n)
		}
	}
}

func TestErrorsStick(t *testing.T) {
	r := NewReader([]byte{5, 'a', 'b'})
	if got := r.String(); got != "" || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("String past the end = %q, %v", got, r.Err())
	}
	// Every later read is a no-op returning zero; the first error is kept.
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Uint64() != 0 || r.String() != "" || r.Bool() || r.Count(1) != 0 || r.Len() != 0 {
		t.Error("a read after the error returned a value")
	}
	r.Fail(errors.New("later"))
	if !errors.Is(r.Finish(), ErrTruncated) {
		t.Errorf("Finish = %v, want the first error", r.Finish())
	}

	if r := NewReader([]byte{2}); r.Bool() || r.Err() == nil {
		t.Error("boolean byte 2 accepted")
	}
	if r := NewReader(binary.LittleEndian.AppendUint64(nil, 1)[:7]); r.Uint64() != 0 || r.Err() == nil {
		t.Error("seven bytes read as a uint64")
	}
}

// TestCountCannotOutrunThePayload: a count is refused unless the bytes left
// could hold that many elements of the stated minimum size, so it can size an
// allocation.
func TestCountCannotOutrunThePayload(t *testing.T) {
	r := NewReader([]byte{3, 'a', 'b', 'c'})
	if got := r.Count(1); got != 3 || r.Err() != nil {
		t.Fatalf("Count(1) = %d, %v", got, r.Err())
	}
	r = NewReader([]byte{3, 'a', 'b', 'c', 'd', 'e', 'f'})
	if got := r.Count(2); got != 3 || r.Err() != nil {
		t.Fatalf("Count(2) = %d, %v", got, r.Err())
	}
	r = NewReader([]byte{3, 'a', 'b', 'c', 'd', 'e'})
	if got := r.Count(2); got != 0 || r.Err() == nil {
		t.Fatalf("Count(2) over five bytes = %d, %v; want an error", got, r.Err())
	}
	r = NewReader(append(binary.AppendUvarint(nil, 1<<40), 'a', 'b'))
	if got := r.Count(1); got != 0 || r.Err() == nil {
		t.Fatalf("Count = %d, %v; want an error", got, r.Err())
	}
}

// TestStringsDoNotAliasTheInput: frame readers reuse their buffers.
func TestStringsDoNotAliasTheInput(t *testing.T) {
	in := AppendString(nil, "stable")
	r := NewReader(in)
	s := r.String()
	for i := range in {
		in[i] = 'x'
	}
	if s != "stable" {
		t.Fatalf("string changed with the input buffer: %q", s)
	}
}
