// Package wire holds the primitives of CQMS's hand-written binary formats:
// the WAL/snapshot record codec in internal/storage and the stats
// subscriber's derived-state checkpoint. Integers are varints (zigzag for
// signed), strings are a uvarint length followed by the bytes, floats and
// hashes are fixed 8 bytes little-endian.
//
// Encoding is append-style: the Append functions here and encoding/binary's
// AppendUvarint, AppendVarint and LittleEndian.AppendUint64 grow a
// caller-supplied buffer and return it. Decoding goes through Reader, which reads from one
// immutable string so that every string it hands out is a substring of that
// block — one allocation per payload instead of one per field — and which
// keeps the first error, so a decoder checks Err once at the end instead of
// after every field.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a payload that ends inside a field.
var ErrTruncated = errors.New("wire: truncated payload")

// AppendString appends a uvarint length and the string's bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Reader decodes one payload. Every read past the end, and every malformed
// varint, records an error and returns zero; reads after an error are no-ops
// returning zero, so a decoder may read a whole structure and check Err once.
type Reader struct {
	s   string
	off int
	err error
}

// NewReader returns a reader over a copy of p. The copy is the payload's one
// allocation: strings returned by the reader share it, and none aliases p.
func NewReader(p []byte) Reader { return Reader{s: string(p)} }

// Err returns the first decoding error, nil if every read succeeded.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.s) - r.off }

// Fail records err as the reader's error unless one is already set.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.off = len(r.s)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.s) {
		r.Fail(ErrTruncated)
		return 0
	}
	b := r.s[r.off]
	r.off++
	return b
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(errors.New("wire: boolean byte is neither 0 nor 1"))
		return false
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.off < len(r.s) {
		if b := r.s[r.off]; b < 0x80 {
			r.off++
			return uint64(b)
		}
	}
	return r.uvarintSlow()
}

func (r *Reader) uvarintSlow() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.off >= len(r.s) {
			r.Fail(ErrTruncated)
			return 0
		}
		b := r.s[r.off]
		r.off++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break // overflows 64 bits
			}
			return v | uint64(b)<<shift
		}
		v |= uint64(b&0x7f) << shift
	}
	r.Fail(errors.New("wire: varint overflows 64 bits"))
	return 0
}

// Varint reads a zigzag-encoded signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a signed varint that must fit the platform's int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(errors.New("wire: integer overflows int"))
		return 0
	}
	return int(v)
}

// Uint64 reads 8 bytes little-endian.
func (r *Reader) Uint64() uint64 {
	s := r.Take(8)
	if len(s) != 8 {
		return 0
	}
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// Take reads the next n bytes as a substring of the payload.
func (r *Reader) Take(n uint64) string {
	if n > uint64(len(r.s)-r.off) {
		r.Fail(ErrTruncated)
		return ""
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

// String reads a uvarint length and that many bytes.
func (r *Reader) String() string { return r.Take(r.Uvarint()) }

// Count reads an element count for a sequence whose elements each occupy at
// least elemBytes (>= 1) bytes of payload. A count the rest of the payload
// cannot hold is an error, so a slice sized from the result is never larger
// than (bytes left / elemBytes) elements: what a hostile count can make a
// decoder allocate is bounded by the payload's own size times the ratio of
// an element's in-memory size to its smallest encoding.
func (r *Reader) Count(elemBytes int) int {
	n := r.Uvarint()
	if left := uint64(len(r.s) - r.off); n > left/uint64(elemBytes) {
		r.Fail(fmt.Errorf("wire: count %d of %d-byte elements exceeds the %d bytes left", n, elemBytes, left))
		return 0
	}
	return int(n)
}

// Finish returns the reader's error, or an error if bytes remain unread: a
// well-formed payload is consumed exactly.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.s) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.s)-r.off)
	}
	return nil
}
