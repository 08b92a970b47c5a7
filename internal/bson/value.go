package bson

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"time"
)

// Type identifies the canonical type of a document value. The numeric order
// of the constants is the cross-type sort order used by Compare, which mirrors
// the BSON comparison order (null < numbers < string < document < array <
// objectid < bool < date).
type Type int

// Canonical value types, in comparison order.
const (
	TypeNull Type = iota
	TypeNumber
	TypeString
	TypeDocument
	TypeArray
	TypeObjectID
	TypeBool
	TypeDate
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeNumber:
		return "number"
	case TypeString:
		return "string"
	case TypeDocument:
		return "document"
	case TypeArray:
		return "array"
	case TypeObjectID:
		return "objectId"
	case TypeBool:
		return "bool"
	case TypeDate:
		return "date"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// TypeOf returns the canonical type of a normalized value.
func TypeOf(v any) Type {
	switch v.(type) {
	case nil:
		return TypeNull
	case int64, float64:
		return TypeNumber
	case string:
		return TypeString
	case *Doc:
		return TypeDocument
	case []any:
		return TypeArray
	case ObjectID:
		return TypeObjectID
	case bool:
		return TypeBool
	case time.Time:
		return TypeDate
	default:
		return TypeNull
	}
}

// Normalize converts arbitrary Go values into the canonical value set used by
// the store: nil, bool, int64, float64, string, *Doc, []any, ObjectID,
// time.Time. Integer types collapse to int64 and float32 to float64; unknown
// types are stringified so a document can always be stored.
//
// A canonical value is returned as it is, a []any included: an array is
// copied only when one of its elements (at any depth) changes, and then only
// from the first such element on. A caller that goes on writing an array it
// stored through Normalize (Doc.Set, Path.Set, D, A) writes the stored value
// too, so it must hand over a slice it no longer writes, or a copy of one.
func Normalize(v any) any {
	switch t := v.(type) {
	case nil, bool, int64, float64, string, *Doc, ObjectID, time.Time:
		return t
	case int:
		return int64(t)
	case int8:
		return int64(t)
	case int16:
		return int64(t)
	case int32:
		return int64(t)
	case uint:
		return int64(t)
	case uint8:
		return int64(t)
	case uint16:
		return int64(t)
	case uint32:
		return int64(t)
	case uint64:
		return int64(t)
	case float32:
		return float64(t)
	case []any:
		return normalizeArray(t)
	case []string:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = e
		}
		return out
	case []int:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = int64(e)
		}
		return out
	case []int64:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = e
		}
		return out
	case []float64:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = e
		}
		return out
	case []*Doc:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = e
		}
		return out
	case map[string]any:
		d := NewDoc(len(t))
		// Deterministic ordering for maps: sorted keys.
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			d.Set(k, t[k])
		}
		return d
	default:
		return fmt.Sprintf("%v", t)
	}
}

// normalizeArray returns t itself when every element is canonical, and
// otherwise a copy that shares t's elements up to the first one Normalize
// changes and holds the normalized elements from there on.
func normalizeArray(t []any) []any {
	for i, e := range t {
		n := Normalize(e)
		if unchanged(e, n) {
			continue
		}
		out := make([]any, len(t))
		copy(out, t[:i])
		out[i] = n
		for j := i + 1; j < len(t); j++ {
			out[j] = Normalize(t[j])
		}
		return out
	}
	return t
}

// unchanged reports whether n, what Normalize returned for v, is v itself.
func unchanged(v, n any) bool {
	switch tv := v.(type) {
	case nil, bool, int64, float64, string, *Doc, ObjectID, time.Time:
		return true
	case []any:
		tn := n.([]any)
		return len(tv) == 0 || &tv[0] == &tn[0]
	default:
		return false
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// AsFloat converts a numeric value (int64 or float64) to float64.
func AsFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case int64:
		return float64(t), true
	case float64:
		return t, true
	default:
		return 0, false
	}
}

// AsInt converts a numeric value to int64, truncating floats.
func AsInt(v any) (int64, bool) {
	switch t := v.(type) {
	case int64:
		return t, true
	case float64:
		return int64(t), true
	default:
		return 0, false
	}
}

// IsNumeric reports whether v is an int64 or float64.
func IsNumeric(v any) bool {
	switch v.(type) {
	case int64, float64:
		return true
	default:
		return false
	}
}

// Compare imposes a total order over all canonical values. Values of
// different types order by type (see Type); values of the same type compare
// naturally, numbers by their exact values: two int64s as integers, not
// through float64, which has no room for every int64 past 2^53 (2^53 and
// 2^53+1 are one float64), and an int64 against a float64 without rounding
// either. The order is reflexive, antisymmetric and transitive, which the
// index B-tree and the sort stages rely on.
func Compare(a, b any) int {
	// Numbers and strings, the index trees' keys, ahead of the type dispatch.
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmp.Compare(x, y)
		case float64:
			return compareIntFloat(x, y)
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return compareFloat(x, y)
		case int64:
			return -compareIntFloat(y, x)
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	}
	ta, tb := TypeOf(a), TypeOf(b)
	if ta != tb {
		if ta < tb {
			return -1
		}
		return 1
	}
	switch ta {
	case TypeDocument:
		return compareDocs(a.(*Doc), b.(*Doc))
	case TypeArray:
		return compareArrays(a.([]any), b.([]any))
	case TypeObjectID:
		oa, ob := a.(ObjectID), b.(ObjectID)
		return compareBytes(oa[:], ob[:])
	case TypeBool:
		ba, bb := a.(bool), b.(bool)
		switch {
		case ba == bb:
			return 0
		case !ba:
			return -1
		default:
			return 1
		}
	case TypeDate:
		da, db := a.(time.Time), b.(time.Time)
		switch {
		case da.Before(db):
			return -1
		case da.After(db):
			return 1
		default:
			return 0
		}
	}
	return 0
}

// twoTo63 is 2^63, the least float64 above every int64.
const twoTo63 = float64(1 << 63)

// compareIntFloat orders an int64 against a float64 exactly. A NaN sorts
// before every number, as compareFloat sorts it. Inside the int64 range the
// float's integer part is an int64 with no rounding, and its fraction breaks
// a tie.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 1
	case f >= twoTo63:
		return -1
	case f < -twoTo63:
		return 1
	}
	t := int64(f) // f truncated toward zero, exactly
	switch {
	case i < t:
		return -1
	case i > t:
		return 1
	case f > float64(t):
		return -1
	case f < float64(t):
		return 1
	default:
		return 0
	}
}

// exactFloat returns the float64 equal to i, or false when none is.
func exactFloat(i int64) (float64, bool) {
	f := float64(i)
	return f, f < twoTo63 && int64(f) == i
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case math.IsNaN(a) && !math.IsNaN(b):
		return -1
	case !math.IsNaN(a) && math.IsNaN(b):
		return 1
	default:
		return 0
	}
}

func compareDocs(a, b *Doc) int {
	if a == b {
		// One document, shared: a write copies the documents on the path it
		// changes and keeps the rest (see Path.Set).
		return 0
	}
	af, bf := a.Fields(), b.Fields()
	n := len(af)
	if len(bf) < n {
		n = len(bf)
	}
	for i := 0; i < n; i++ {
		if af[i].Key != bf[i].Key {
			if af[i].Key < bf[i].Key {
				return -1
			}
			return 1
		}
		if c := Compare(af[i].Value, bf[i].Value); c != 0 {
			return c
		}
	}
	switch {
	case len(af) < len(bf):
		return -1
	case len(af) > len(bf):
		return 1
	default:
		return 0
	}
}

func compareArrays(a, b []any) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Truthy reports whether a value is considered true in a boolean expression
// context ($cond, $and, $or): false, 0, and null are falsy, everything else
// is truthy.
func Truthy(v any) bool {
	switch t := v.(type) {
	case nil:
		return false
	case bool:
		return t
	case int64:
		return t != 0
	case float64:
		return t != 0
	default:
		return true
	}
}
