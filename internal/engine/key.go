package engine

import (
	"math"
	"strconv"
)

// valueKey is Value.Key as a comparable struct: two values have equal
// valueKeys exactly when they have equal Key strings, so hash joins, grouping
// and DISTINCT can key a map without formatting a string per row. Numbers of
// either type are keyed by the bits of their float64 (so 2 and 2.0 meet, 2^53
// and 2^53+1 meet, and -0.0 stays apart from 0, as their 'g' renderings do),
// every NaN by one bit pattern.
type valueKey struct {
	kind Type // TypeFloat for both numeric types; -1 for a type Key renders as "?"
	num  uint64
	str  string
}

func keyOf(v *Value) valueKey {
	switch v.Type {
	case TypeNull:
		return valueKey{kind: TypeNull}
	case TypeInt:
		return valueKey{kind: TypeFloat, num: math.Float64bits(float64(v.Int))}
	case TypeFloat:
		if v.Float != v.Float {
			return valueKey{kind: TypeFloat, num: math.Float64bits(math.NaN())}
		}
		return valueKey{kind: TypeFloat, num: math.Float64bits(v.Float)}
	case TypeText:
		return valueKey{kind: TypeText, str: v.Str}
	case TypeBool:
		if v.Bool {
			return valueKey{kind: TypeBool, num: 1}
		}
		return valueKey{kind: TypeBool}
	case TypeTimestamp:
		return valueKey{kind: TypeTimestamp, num: uint64(v.Time.UnixNano())}
	default:
		return valueKey{kind: -1}
	}
}

// appendKey appends the value's Key to dst.
func (v *Value) appendKey(dst []byte) []byte {
	switch v.Type {
	case TypeNull:
		return append(dst, "\x00null"...)
	case TypeInt:
		return strconv.AppendFloat(append(dst, "n:"...), float64(v.Int), 'g', -1, 64)
	case TypeFloat:
		return strconv.AppendFloat(append(dst, "n:"...), v.Float, 'g', -1, 64)
	case TypeText:
		return append(append(dst, "s:"...), v.Str...)
	case TypeBool:
		if v.Bool {
			return append(dst, "b:1"...)
		}
		return append(dst, "b:0"...)
	case TypeTimestamp:
		return strconv.AppendInt(append(dst, "t:"...), v.Time.UnixNano(), 10)
	default:
		return append(dst, '?')
	}
}

// keyIndex numbers the distinct keys it is shown, densely and in first-seen
// order: the group of a GROUP BY key, whether a row is new to a DISTINCT or
// present in the other operand of a set operation. A key of one value is a
// valueKey; a key of several is their Key strings joined by a unit separator,
// built in a reused buffer, so only a key's first appearance allocates.
type keyIndex struct {
	one  map[valueKey]int32
	many map[string]int32
	buf  []byte
}

// add returns the number of the key, assigning the next one if it is new.
func (k *keyIndex) add(key []Value) (id int32, fresh bool) {
	if len(key) == 1 {
		vk := keyOf(&key[0])
		id, ok := k.one[vk]
		if !ok {
			if k.one == nil {
				k.one = make(map[valueKey]int32)
			}
			id = int32(k.len())
			k.one[vk] = id
		}
		return id, !ok
	}
	k.buf = appendRowKey(k.buf[:0], key)
	id, ok := k.many[string(k.buf)]
	if !ok {
		if k.many == nil {
			k.many = make(map[string]int32)
		}
		id = int32(k.len())
		k.many[string(k.buf)] = id
	}
	return id, !ok
}

// has reports whether the key has been added.
func (k *keyIndex) has(key []Value) bool {
	if len(key) == 1 {
		_, ok := k.one[keyOf(&key[0])]
		return ok
	}
	k.buf = appendRowKey(k.buf[:0], key)
	_, ok := k.many[string(k.buf)]
	return ok
}

func (k *keyIndex) len() int { return len(k.one) + len(k.many) }

func appendRowKey(dst []byte, key []Value) []byte {
	for i := range key {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		dst = key[i].appendKey(dst)
	}
	return dst
}
