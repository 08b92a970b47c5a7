// Package bson implements the document value model used throughout the
// document store: ordered documents, arrays, a BSON-like type system with a
// total ordering across types, dotted-path access, ObjectIds, and binary and
// JSON encodings.
//
// The model mirrors the subset of BSON behaviour that the reproduced thesis
// relies on: documents are ordered key/value maps, values may be nested
// documents or arrays, every document carries an _id primary key, and a
// single document may not exceed MaxDocumentSize (16 MB).
package bson

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// MaxDocumentSize is the maximum encoded size of a single document (16 MB),
// matching the limit discussed in §2.1.1 of the thesis.
const MaxDocumentSize = 16 * 1024 * 1024

// IDKey is the name of the primary-key field present on every stored document.
const IDKey = "_id"

// Field is a single key/value pair inside a Doc.
type Field struct {
	Key   string
	Value any
}

// Doc is an ordered document: a sequence of fields with unique keys.
// The zero value is an empty document ready for use.
type Doc struct {
	fields []Field
}

// NewDoc returns an empty document with capacity for n fields.
func NewDoc(n int) *Doc {
	return &Doc{fields: make([]Field, 0, n)}
}

// D builds a document from alternating key/value arguments:
//
//	bson.D("a", 1, "b", "x")
//
// It panics if given an odd number of arguments or a non-string key, which is
// always a programming error at a call site.
func D(pairs ...any) *Doc {
	if len(pairs)%2 != 0 {
		panic("bson.D: odd number of arguments")
	}
	d := NewDoc(len(pairs) / 2)
	for i := 0; i < len(pairs); i += 2 {
		k, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("bson.D: key %v is not a string", pairs[i]))
		}
		d.Set(k, pairs[i+1])
	}
	return d
}

// A is a convenience constructor for arrays. Items are normalized to the
// canonical value set.
func A(items ...any) []any {
	out := make([]any, len(items))
	for i, v := range items {
		out[i] = Normalize(v)
	}
	return out
}

// Len returns the number of fields in the document.
func (d *Doc) Len() int {
	if d == nil {
		return 0
	}
	return len(d.fields)
}

// Keys returns the field names in document order.
func (d *Doc) Keys() []string {
	if d == nil {
		return nil
	}
	keys := make([]string, len(d.fields))
	for i, f := range d.fields {
		keys[i] = f.Key
	}
	return keys
}

// Fields returns the ordered fields of the document. The returned slice must
// not be modified.
func (d *Doc) Fields() []Field {
	if d == nil {
		return nil
	}
	return d.fields
}

// index returns the position of key, or -1.
func (d *Doc) index(key string) int {
	if d == nil {
		return -1
	}
	for i := range d.fields {
		if d.fields[i].Key == key {
			return i
		}
	}
	return -1
}

// Get returns the value stored at key and whether the key exists.
func (d *Doc) Get(key string) (any, bool) {
	i := d.index(key)
	if i < 0 {
		return nil, false
	}
	return d.fields[i].Value, true
}

// GetOr returns the value at key or def when the key is absent.
func (d *Doc) GetOr(key string, def any) any {
	if v, ok := d.Get(key); ok {
		return v
	}
	return def
}

// Has reports whether key exists in the document.
func (d *Doc) Has(key string) bool { return d.index(key) >= 0 }

// Set stores value at key, replacing any existing value and preserving the
// original field position; new keys are appended. It returns the document to
// allow chaining.
func (d *Doc) Set(key string, value any) *Doc {
	value = Normalize(value)
	if i := d.index(key); i >= 0 {
		d.fields[i].Value = value
		return d
	}
	d.fields = append(d.fields, Field{Key: key, Value: value})
	return d
}

// Delete removes key from the document and reports whether it was present.
func (d *Doc) Delete(key string) bool {
	i := d.index(key)
	if i < 0 {
		return false
	}
	d.fields = append(d.fields[:i], d.fields[i+1:]...)
	return true
}

// ID returns the document's _id value, or nil when unset.
func (d *Doc) ID() any { return d.GetOr(IDKey, nil) }

// WithID returns a new document holding _id = id first and then d's fields,
// over d's own values: how a document that has no _id is stored. d, which
// must hold no _id, is not written.
func (d *Doc) WithID(id any) *Doc {
	fields := make([]Field, 0, len(d.fields)+1)
	fields = append(fields, Field{Key: IDKey, Value: Normalize(id)})
	return &Doc{fields: append(fields, d.fields...)}
}

// ShallowClone returns a copy of the document's field array over the same
// values: the copy's fields can be set, added and removed without touching
// d, but a nested document or array is still d's. It is what a write takes
// of a stored document (see Path.Set), whose nested values are never written.
func (d *Doc) ShallowClone() *Doc {
	if d == nil {
		return nil
	}
	return &Doc{fields: slices.Clone(d.fields)}
}

// Clone returns a deep copy of the document.
func (d *Doc) Clone() *Doc {
	if d == nil {
		return nil
	}
	out := NewDoc(len(d.fields))
	for _, f := range d.fields {
		out.fields = append(out.fields, Field{Key: f.Key, Value: CloneValue(f.Value)})
	}
	return out
}

// CloneValue deep-copies a document value.
func CloneValue(v any) any {
	switch t := v.(type) {
	case *Doc:
		return t.Clone()
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = CloneValue(e)
		}
		return out
	default:
		return v
	}
}

// GetPath resolves a dotted path ("a.b.c") against the document, traversing
// intermediate documents only (see Path.Get). It compiles the path on every
// call: a caller that resolves the same path in many documents holds a Path.
func (d *Doc) GetPath(path string) (any, bool) {
	var p Path
	p.Init(path)
	return p.Get(d)
}

// LookupPathAll resolves a dotted path once and returns every value
// reachable through arrays along the way (see Path.Lookup).
func (d *Doc) LookupPathAll(path string) []any {
	var p Path
	p.Init(path)
	vs := p.Lookup(d)
	if vs.fanned {
		return vs.v.([]any)
	}
	if vs.n == 0 {
		return nil
	}
	return []any{vs.v}
}

// SetPath stores value at a dotted path once (see Path.Set).
func (d *Doc) SetPath(path string, value any) error {
	var p Path
	p.Init(path)
	return p.Set(d, value)
}

// DeletePath removes the value at a dotted path once (see Path.Delete).
func (d *Doc) DeletePath(path string) bool {
	var p Path
	p.Init(path)
	return p.Delete(d)
}

// Equal reports whether two documents have the same fields, in the same
// order, with equal values.
func (d *Doc) Equal(other *Doc) bool {
	if d.Len() != other.Len() {
		return false
	}
	for i := range d.fields {
		if d.fields[i].Key != other.fields[i].Key {
			return false
		}
		if Compare(d.fields[i].Value, other.fields[i].Value) != 0 {
			return false
		}
	}
	return true
}

// EqualUnordered reports whether two documents contain the same keys with
// equal values, ignoring field order. Nested documents are also compared
// unordered. This is the equality used when checking that two query plans
// return the same logical result.
func (d *Doc) EqualUnordered(other *Doc) bool {
	if d.Len() != other.Len() {
		return false
	}
	for _, f := range d.fields {
		ov, ok := other.Get(f.Key)
		if !ok {
			return false
		}
		if !valueEqualUnordered(f.Value, ov) {
			return false
		}
	}
	return true
}

func valueEqualUnordered(a, b any) bool {
	ad, aok := a.(*Doc)
	bd, bok := b.(*Doc)
	if aok && bok {
		return ad.EqualUnordered(bd)
	}
	aa, aok := a.([]any)
	ba, bok := b.([]any)
	if aok && bok {
		if len(aa) != len(ba) {
			return false
		}
		for i := range aa {
			if !valueEqualUnordered(aa[i], ba[i]) {
				return false
			}
		}
		return true
	}
	return Compare(a, b) == 0
}

// SortedKeys returns the document keys in lexicographic order. Used for
// deterministic output rendering.
func (d *Doc) SortedKeys() []string {
	keys := d.Keys()
	sort.Strings(keys)
	return keys
}

// String renders the document in a compact extended-JSON-like form, intended
// for logs and error messages.
func (d *Doc) String() string {
	var b strings.Builder
	d.writeString(&b)
	return b.String()
}

func (d *Doc) writeString(b *strings.Builder) {
	b.WriteByte('{')
	for i, f := range d.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s: ", f.Key)
		writeValueString(b, f.Value)
	}
	b.WriteByte('}')
}

func writeValueString(b *strings.Builder, v any) {
	switch t := v.(type) {
	case *Doc:
		t.writeString(b)
	case []any:
		b.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				b.WriteString(", ")
			}
			writeValueString(b, e)
		}
		b.WriteByte(']')
	case string:
		fmt.Fprintf(b, "%q", t)
	default:
		fmt.Fprintf(b, "%v", t)
	}
}
