package query

import (
	"fmt"
	"slices"
	"strings"

	"docstore/internal/bson"
)

// Update operators supported by ApplyUpdate. The update document either uses
// operators ({"$set": {...}, "$inc": {...}}) or is a full replacement
// document (no $-prefixed top-level keys), in which case every field except
// _id is replaced.

// IsOperatorUpdate reports whether the update document uses update operators
// rather than being a full-document replacement.
func IsOperatorUpdate(update *bson.Doc) bool {
	for _, f := range update.Fields() {
		if strings.HasPrefix(f.Key, "$") {
			return true
		}
	}
	return false
}

// Written is what ApplyUpdate reports it wrote: the top-level fields of the
// document under which an operator set, replaced or removed a value, each
// named once ($rename names its source and its target), or All for a
// replacement, which rewrites every field. Every top-level field it leaves
// out holds the value it held before the update, shared. Reset it and hand it
// to the next call to reuse its slice.
type Written struct {
	All    bool
	Fields []string
}

// Reset empties w, keeping the slice for the next update.
func (w *Written) Reset() {
	w.All, w.Fields = false, w.Fields[:0]
}

// add records that the update wrote at path.
func (w *Written) add(path string) {
	if w == nil {
		return
	}
	top, _, _ := strings.Cut(path, ".")
	if !slices.Contains(w.Fields, top) {
		w.Fields = append(w.Fields, top)
	}
}

// Resize returns the encoded size of updated, and whether it nests within
// levels levels, where updated is old after the update that reported w, and
// old, oldSize bytes, nests within levels levels: oldSize less the elements
// of w's fields in old plus their elements in updated, and a depth walk of
// only the values written. Every field w leaves out holds the same value in
// both documents, so the size is bson.EncodedSize(updated) and the verdict
// bson.NestsWithin's. w must not be All: a replacement's document is sized
// in full. memo may be nil.
func (w *Written) Resize(old, updated *bson.Doc, oldSize, levels int, memo *SizeMemo) (int, bool) {
	size, nests := oldSize, true
	for _, f := range w.Fields {
		if v, ok := old.Get(f); ok {
			size -= 2 + len(f) + bson.ValueSize(v) // type tag, key, NUL, value
		}
		if v, ok := updated.Get(f); ok {
			n, within := memo.value(v, levels-1)
			size += 2 + len(f) + n
			nests = nests && within
		}
	}
	return size, nests
}

// SizeMemo remembers the encoded size and the depth verdict of the last
// document Resize met as a written value. Every row one multi-update embeds a
// dimension document into holds the same *bson.Doc, which is then walked once
// per op instead of once per row. A memo is right while the documents it has
// sized are not written: stored documents, and the values of an update that
// storage keeps, never are.
type SizeMemo struct {
	doc          *bson.Doc
	levels, size int
	within       bool
}

// value returns v's encoded size as an element value and whether it nests
// within levels levels.
func (m *SizeMemo) value(v any, levels int) (int, bool) {
	d, isDoc := v.(*bson.Doc)
	if !isDoc || m == nil {
		return bson.ValueSize(v), bson.ValueNestsWithin(v, levels)
	}
	if d != m.doc || levels != m.levels {
		*m = SizeMemo{doc: d, levels: levels, size: bson.EncodedSize(d), within: bson.NestsWithin(d, levels)}
	}
	return m.size, m.within
}

// ApplyUpdate applies an update document to doc and reports whether the
// document changed. The _id field is immutable: a replacement keeps the
// existing _id and operator updates may not modify it. When written is not
// nil, the fields the update wrote are added to it (see Written); what an
// update that fails has added is not meaningful.
//
// What it writes and what it shares: doc's own field array is written in
// place, and a nested document on a path an operator writes is first
// replaced in doc by a shallow copy (bson.Path.Set), so no other nested
// document and no array doc holds is written — a shallow copy of a stored
// document is all a caller has to make. The values of update are stored in
// doc by reference, never copied: a caller that keeps doc gives it an update
// nothing will write again (storage clones each op's update once).
func ApplyUpdate(doc, update *bson.Doc, written *Written) (bool, error) {
	if !IsOperatorUpdate(update) {
		if written != nil {
			written.All = true
		}
		return applyReplacement(doc, update)
	}
	changed := false
	for _, f := range update.Fields() {
		spec, ok := f.Value.(*bson.Doc)
		if !ok {
			return changed, fmt.Errorf("query: %s requires a document argument", f.Key)
		}
		for _, target := range spec.Fields() {
			if target.Key == bson.IDKey {
				return changed, fmt.Errorf("query: the %s field is immutable", bson.IDKey)
			}
			c, err := applyOperator(doc, f.Key, target.Key, target.Value)
			if err != nil {
				return changed, err
			}
			if c {
				written.add(target.Key)
				if to, ok := target.Value.(string); ok && f.Key == "$rename" {
					written.add(to)
				}
			}
			changed = changed || c
		}
	}
	return changed, nil
}

func applyReplacement(doc, replacement *bson.Doc) (bool, error) {
	id, hadID := doc.Get(bson.IDKey)
	if newID, ok := replacement.Get(bson.IDKey); ok && hadID && bson.Compare(newID, id) != 0 {
		return false, fmt.Errorf("query: the %s field is immutable", bson.IDKey)
	}
	// Remove all fields, then copy the replacement in, restoring _id first so
	// it keeps its leading position.
	for _, k := range doc.Keys() {
		doc.Delete(k)
	}
	if hadID {
		doc.Set(bson.IDKey, id)
	}
	for _, f := range replacement.Fields() {
		if f.Key == bson.IDKey {
			continue
		}
		doc.Set(f.Key, f.Value)
	}
	return true, nil
}

func applyOperator(doc *bson.Doc, op, path string, arg any) (bool, error) {
	arg = bson.Normalize(arg)
	switch op {
	case "$set":
		cur, had := doc.GetPath(path)
		if had && bson.Compare(cur, arg) == 0 {
			return false, nil
		}
		return true, doc.SetPath(path, arg)
	case "$unset":
		return doc.DeletePath(path), nil
	case "$inc", "$mul":
		delta, ok := bson.AsFloat(arg)
		if !ok {
			return false, fmt.Errorf("query: %s requires a numeric argument for %q", op, path)
		}
		cur, had := doc.GetPath(path)
		if !had {
			initial := arg
			if op == "$mul" {
				initial = int64(0)
			}
			return true, doc.SetPath(path, initial)
		}
		curF, ok := bson.AsFloat(cur)
		if !ok {
			return false, fmt.Errorf("query: cannot apply %s to non-numeric field %q", op, path)
		}
		var res float64
		if op == "$inc" {
			res = curF + delta
		} else {
			res = curF * delta
		}
		return true, doc.SetPath(path, numericResult(cur, arg, res))
	case "$min", "$max":
		cur, had := doc.GetPath(path)
		if !had {
			return true, doc.SetPath(path, arg)
		}
		cmp := bson.Compare(arg, cur)
		if (op == "$min" && cmp < 0) || (op == "$max" && cmp > 0) {
			return true, doc.SetPath(path, arg)
		}
		return false, nil
	case "$rename":
		newName, ok := arg.(string)
		if !ok {
			return false, fmt.Errorf("query: $rename requires a string argument for %q", path)
		}
		v, had := doc.GetPath(path)
		if !had {
			return false, nil
		}
		doc.DeletePath(path)
		return true, doc.SetPath(newName, v)
	case "$push":
		cur, had := doc.GetPath(path)
		if !had {
			return true, doc.SetPath(path, []any{arg})
		}
		arr, ok := cur.([]any)
		if !ok {
			return false, fmt.Errorf("query: cannot $push to non-array field %q", path)
		}
		return true, doc.SetPath(path, appendShared(arr, arg))
	case "$addToSet":
		cur, had := doc.GetPath(path)
		if !had {
			return true, doc.SetPath(path, []any{arg})
		}
		arr, ok := cur.([]any)
		if !ok {
			return false, fmt.Errorf("query: cannot $addToSet to non-array field %q", path)
		}
		for _, e := range arr {
			if bson.Compare(e, arg) == 0 {
				return false, nil
			}
		}
		return true, doc.SetPath(path, appendShared(arr, arg))
	case "$pull":
		cur, had := doc.GetPath(path)
		if !had {
			return false, nil
		}
		arr, ok := cur.([]any)
		if !ok {
			return false, fmt.Errorf("query: cannot $pull from non-array field %q", path)
		}
		kept := arr[:0:0]
		removed := false
		for _, e := range arr {
			if bson.Compare(e, arg) == 0 {
				removed = true
				continue
			}
			kept = append(kept, e)
		}
		if !removed {
			return false, nil
		}
		return true, doc.SetPath(path, kept)
	case "$pop":
		n, ok := bson.AsInt(arg)
		if !ok || (n != 1 && n != -1) {
			return false, fmt.Errorf("query: $pop requires 1 or -1 for %q", path)
		}
		cur, had := doc.GetPath(path)
		if !had {
			return false, nil
		}
		arr, ok := cur.([]any)
		if !ok {
			return false, fmt.Errorf("query: cannot $pop from non-array field %q", path)
		}
		if len(arr) == 0 {
			return false, nil
		}
		if n == 1 {
			arr = arr[:len(arr)-1]
		} else {
			arr = arr[1:]
		}
		return true, doc.SetPath(path, arr)
	default:
		return false, fmt.Errorf("query: unknown update operator %s", op)
	}
}

// appendShared appends v to a copy of arr: arr may be another document's
// array, and its spare capacity theirs to write.
func appendShared(arr []any, v any) []any {
	return append(arr[:len(arr):len(arr)], v)
}

// numericResult keeps integer arithmetic integral: when both the current
// value and the operand are integers the result stays an int64, otherwise it
// becomes a float64.
func numericResult(cur, operand any, res float64) any {
	_, curInt := cur.(int64)
	_, opInt := operand.(int64)
	if curInt && opInt {
		return int64(res)
	}
	return res
}

// UpdateSpec describes a full update request, mirroring the four-parameter
// update call used by the thesis' EmbedDocuments algorithm (Figure 4.7):
// a selection filter, the update document, upsert behaviour and whether all
// matching documents are updated.
type UpdateSpec struct {
	Query  *bson.Doc
	Update *bson.Doc
	Upsert bool
	Multi  bool
}
