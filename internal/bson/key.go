package bson

import (
	"encoding/binary"
	"math"
	"time"
)

// Tags of AppendKey's encoding.
const (
	keyNull byte = iota
	keyNumber
	keyString
	keyDocument
	keyArray
	keyObjectID
	keyFalse
	keyTrue
	keyDate
	keyInt64
)

// AppendKey appends an encoding of v under which two values have the same
// bytes exactly when Compare calls them equal — int64(1) and 1.0 are one key,
// as they are one value to $match, $sort and $addToSet; "1" is another, and so
// is the int64 2^53+1, which no float64 equals — and no encoding is a prefix
// of another, so that the encodings of several values can be concatenated
// into one key. It is what a hash join or a grouping keys a map by: $group
// buckets by it and $lookup joins by it.
func AppendKey(dst []byte, v any) []byte {
	switch t := v.(type) {
	case nil:
		return append(dst, keyNull)
	case int64:
		if f, ok := exactFloat(t); ok {
			return appendNumberKey(dst, f)
		}
		// No float64 equals it, so it has a tag of its own.
		return binary.BigEndian.AppendUint64(append(dst, keyInt64), uint64(t))
	case float64:
		return appendNumberKey(dst, t)
	case string:
		return appendStringKey(dst, t)
	case *Doc:
		dst = binary.AppendUvarint(append(dst, keyDocument), uint64(t.Len()))
		for _, f := range t.Fields() {
			dst = AppendKey(appendStringKey(dst, f.Key), f.Value)
		}
		return dst
	case []any:
		dst = binary.AppendUvarint(append(dst, keyArray), uint64(len(t)))
		for _, e := range t {
			dst = AppendKey(dst, e)
		}
		return dst
	case ObjectID:
		return append(append(dst, keyObjectID), t[:]...)
	case bool:
		if t {
			return append(dst, keyTrue)
		}
		return append(dst, keyFalse)
	case time.Time:
		dst = binary.BigEndian.AppendUint64(append(dst, keyDate), uint64(t.Unix()))
		return binary.BigEndian.AppendUint32(dst, uint32(t.Nanosecond()))
	default:
		// Not a canonical value: Compare orders it with null.
		return append(dst, keyNull)
	}
}

func appendStringKey(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(append(dst, keyString), uint64(len(s)))
	return append(dst, s...)
}

// appendNumberKey encodes a number a float64 holds exactly, with one zero and
// one NaN: an int64 and a float64 of one value get one key.
func appendNumberKey(dst []byte, f float64) []byte {
	switch {
	case f == 0:
		f = 0 // -0 compares equal to 0
	case f != f:
		f = math.NaN()
	}
	return binary.BigEndian.AppendUint64(append(dst, keyNumber), math.Float64bits(f))
}
