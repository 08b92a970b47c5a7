package query

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"docstore/internal/bson"
)

// specApplyUpdate is ApplyUpdate as it was before updates shared what they
// did not write: it writes doc in place, nested documents included, and
// stores a deep copy of what $set and a replacement give it. Applied to deep
// copies of a document and an update (specUpdate) it is the specification
// the sharing ApplyUpdate, applied to a shallow copy, is checked against. Its paths are walked by specGet, specSet
// and specDelete, which split the name at every call and write in place, as
// the document model's path functions did.
func specApplyUpdate(doc, update *bson.Doc) (bool, error) {
	if !IsOperatorUpdate(update) {
		return specApplyReplacement(doc, update)
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
			c, err := specApplyOperator(doc, f.Key, target.Key, target.Value)
			if err != nil {
				return changed, err
			}
			changed = changed || c
		}
	}
	return changed, nil
}

func specApplyReplacement(doc, replacement *bson.Doc) (bool, error) {
	id, hadID := doc.Get(bson.IDKey)
	if newID, ok := replacement.Get(bson.IDKey); ok && hadID && bson.Compare(newID, id) != 0 {
		return false, fmt.Errorf("query: the %s field is immutable", bson.IDKey)
	}
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
		doc.Set(f.Key, bson.CloneValue(f.Value))
	}
	return true, nil
}

func specApplyOperator(doc *bson.Doc, op, path string, arg any) (bool, error) {
	arg = bson.Normalize(arg)
	switch op {
	case "$set":
		cur, had := specGet(doc, path)
		if had && bson.Compare(cur, arg) == 0 {
			return false, nil
		}
		return true, specSet(doc, path, bson.CloneValue(arg))
	case "$unset":
		return specDelete(doc, path), nil
	case "$inc", "$mul":
		delta, ok := bson.AsFloat(arg)
		if !ok {
			return false, fmt.Errorf("query: %s requires a numeric argument for %q", op, path)
		}
		cur, had := specGet(doc, path)
		if !had {
			initial := arg
			if op == "$mul" {
				initial = int64(0)
			}
			return true, specSet(doc, path, initial)
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
		return true, specSet(doc, path, numericResult(cur, arg, res))
	case "$min", "$max":
		cur, had := specGet(doc, path)
		if !had {
			return true, specSet(doc, path, arg)
		}
		cmp := bson.Compare(arg, cur)
		if (op == "$min" && cmp < 0) || (op == "$max" && cmp > 0) {
			return true, specSet(doc, path, arg)
		}
		return false, nil
	case "$rename":
		newName, ok := arg.(string)
		if !ok {
			return false, fmt.Errorf("query: $rename requires a string argument for %q", path)
		}
		v, had := specGet(doc, path)
		if !had {
			return false, nil
		}
		specDelete(doc, path)
		return true, specSet(doc, newName, v)
	case "$push":
		cur, had := specGet(doc, path)
		if !had {
			return true, specSet(doc, path, []any{arg})
		}
		arr, ok := cur.([]any)
		if !ok {
			return false, fmt.Errorf("query: cannot $push to non-array field %q", path)
		}
		return true, specSet(doc, path, append(arr, arg))
	case "$addToSet":
		cur, had := specGet(doc, path)
		if !had {
			return true, specSet(doc, path, []any{arg})
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
		return true, specSet(doc, path, append(arr, arg))
	case "$pull":
		cur, had := specGet(doc, path)
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
		return true, specSet(doc, path, kept)
	case "$pop":
		n, ok := bson.AsInt(arg)
		if !ok || (n != 1 && n != -1) {
			return false, fmt.Errorf("query: $pop requires 1 or -1 for %q", path)
		}
		cur, had := specGet(doc, path)
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
		return true, specSet(doc, path, arr)
	default:
		return false, fmt.Errorf("query: unknown update operator %s", op)
	}
}

// specGet resolves a dotted path through documents only.
func specGet(d *bson.Doc, path string) (any, bool) {
	var v any = d
	for _, key := range strings.Split(path, ".") {
		sub, ok := v.(*bson.Doc)
		if !ok {
			return nil, false
		}
		if v, ok = sub.Get(key); !ok {
			return nil, false
		}
	}
	return v, true
}

// specParent walks in place to the document holding path's last segment,
// creating missing documents when create is set.
func specParent(d *bson.Doc, path string, create bool) (*bson.Doc, string, error) {
	keys := strings.Split(path, ".")
	cur := d
	for i, key := range keys[:len(keys)-1] {
		next, ok := cur.Get(key)
		sub, isDoc := next.(*bson.Doc)
		switch {
		case isDoc:
		case !create:
			return nil, "", nil
		case ok:
			return nil, "", fmt.Errorf("bson: cannot create field %q in element of type %T", keys[i+1], next)
		default:
			sub = bson.NewDoc(1)
			cur.Set(key, sub)
		}
		cur = sub
	}
	return cur, keys[len(keys)-1], nil
}

func specSet(d *bson.Doc, path string, v any) error {
	parent, key, err := specParent(d, path, true)
	if err != nil {
		return err
	}
	parent.Set(key, v)
	return nil
}

func specDelete(d *bson.Doc, path string) bool {
	parent, key, _ := specParent(d, path, false)
	return parent != nil && parent.Delete(key)
}

// updateGen draws the documents and updates of the equivalence test: three
// field names at every level so that paths collide, nesting to three levels,
// arrays of scalars and of documents, and every operator with arguments that
// apply, that do nothing and that fail.
type updateGen struct{ r *rand.Rand }

var genKeys = []string{"a", "b", "c"}

func (g updateGen) path() string {
	n := 1 + g.r.Intn(3)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = genKeys[g.r.Intn(len(genKeys))]
	}
	return strings.Join(keys, ".")
}

func (g updateGen) scalar() any {
	switch g.r.Intn(6) {
	case 0:
		return nil
	case 1:
		return float64(g.r.Intn(5)) / 2
	case 2:
		return fmt.Sprintf("s%d", g.r.Intn(3))
	case 3:
		return g.r.Intn(2) == 0
	default:
		return int64(g.r.Intn(5))
	}
}

// value is a scalar, a document or an array, nested at most depth levels.
func (g updateGen) value(depth int) any {
	switch k := g.r.Intn(6); {
	case depth > 0 && k == 0:
		return g.doc(depth - 1)
	case depth > 0 && k == 1:
		arr := make([]any, g.r.Intn(4))
		for i := range arr {
			arr[i] = g.value(depth - 1)
		}
		return arr
	default:
		return g.scalar()
	}
}

func (g updateGen) doc(depth int) *bson.Doc {
	d := bson.NewDoc(3)
	for _, k := range genKeys {
		if g.r.Intn(3) > 0 {
			d.Set(k, g.value(depth))
		}
	}
	return d
}

func (g updateGen) update() *bson.Doc {
	if g.r.Intn(8) == 0 {
		repl := g.doc(2)
		if g.r.Intn(4) == 0 {
			repl.Set(bson.IDKey, int64(g.r.Intn(2)))
		}
		return repl
	}
	ops := []string{"$set", "$unset", "$inc", "$mul", "$min", "$max", "$rename", "$push", "$addToSet", "$pull", "$pop"}
	u := bson.NewDoc(2)
	for n := 1 + g.r.Intn(2); n > 0; n-- {
		op := ops[g.r.Intn(len(ops))]
		spec := bson.NewDoc(2)
		for m := 1 + g.r.Intn(2); m > 0; m-- {
			spec.Set(g.path(), g.arg(op))
		}
		switch g.r.Intn(40) {
		case 0:
			spec.Set(bson.IDKey, int64(1))
		case 1:
			op = "$bogus"
		}
		u.Set(op, spec)
	}
	if g.r.Intn(40) == 0 {
		u.Set("$set", int64(1)) // an operator whose argument is no document
	}
	return u
}

func (g updateGen) arg(op string) any {
	switch op {
	case "$inc", "$mul":
		if g.r.Intn(8) == 0 {
			return "x"
		}
		return g.scalar()
	case "$rename":
		if g.r.Intn(10) == 0 {
			return int64(1)
		}
		return g.path()
	case "$pop":
		return []any{int64(1), int64(-1), int64(1), int64(2)}[g.r.Intn(4)]
	case "$unset":
		return ""
	default:
		return g.value(2)
	}
}

// withSpareCapacity gives every array in d spare capacity, in place: a
// stored array may have room past its end that another document's append
// would write into. The document model stores the arrays it is given as they
// are (bson.Normalize), so any array may come with such room.
func withSpareCapacity(d *bson.Doc) {
	fields := d.Fields()
	for i := range fields {
		fields[i].Value = spareValue(fields[i].Value)
	}
}

func spareValue(v any) any {
	switch t := v.(type) {
	case *bson.Doc:
		withSpareCapacity(t)
	case []any:
		arr := make([]any, len(t), len(t)+3)
		for i, e := range t {
			arr[i] = spareValue(e)
		}
		return arr
	}
	return v
}

type updateOutcome struct {
	doc     *bson.Doc
	changed bool
	err     error
	written Written // what ApplyUpdate reported; the specification reports nothing
}

func (o updateOutcome) String() string {
	return fmt.Sprintf("changed=%v err=%v doc=%v", o.changed, o.err, o.doc)
}

func sameOutcome(a, b updateOutcome) bool {
	if a.changed != b.changed || fmt.Sprint(a.err) != fmt.Sprint(b.err) {
		return false
	}
	return bytes.Equal(bson.Marshal(a.doc), bson.Marshal(b.doc))
}

// specUpdate applies a deep copy of update to a deep copy of doc by the
// specification. The update is copied too: the specification keeps $push's,
// $min's and $max's arguments by reference, and a later operator of the same
// update would write into them.
func specUpdate(doc, update *bson.Doc) updateOutcome {
	out := doc.Clone()
	changed, err := specApplyUpdate(out, update.Clone())
	return updateOutcome{doc: out, changed: changed, err: err}
}

// sharedUpdate applies update to a shallow copy of doc, as storage does.
func sharedUpdate(doc, update *bson.Doc) updateOutcome {
	out := doc.ShallowClone()
	var w Written
	changed, err := ApplyUpdate(out, update, &w)
	return updateOutcome{doc: out, changed: changed, err: err, written: w}
}

// checkResize is the size oracle of storage's update path, for got, the
// outcome of sharedUpdate on pre. The fields ApplyUpdate reports cover every
// top-level field whose encoded element the update changed, and sizing the
// post-image by difference (Written.Resize) gives bson.EncodedSize and
// bson.NestsWithin at every depth limit the pre-image meets, from the
// tightest up. Storage refuses a document that is too large or too deep by
// exactly these two numbers, so an update sized by difference is refused
// where sizing the whole post-image (storage's storedSize) refuses it, and
// only there.
func checkResize(pre *bson.Doc, got updateOutcome, memo *SizeMemo) error {
	if got.err != nil {
		return nil
	}
	w, post := &got.written, got.doc
	for _, d := range []*bson.Doc{pre, post} {
		for _, f := range d.Fields() {
			before, inPre := pre.Get(f.Key)
			after, inPost := post.Get(f.Key)
			if inPre == inPost && bytes.Equal(bson.AppendValue(nil, "", before), bson.AppendValue(nil, "", after)) {
				continue
			}
			if !w.All && !slices.Contains(w.Fields, f.Key) {
				return fmt.Errorf("field %q changed, but the update reported only %v", f.Key, w.Fields)
			}
		}
	}
	if w.All {
		return nil
	}
	depth := 1
	for !bson.NestsWithin(pre, depth) {
		depth++
	}
	for levels := depth; levels <= depth+3; levels++ {
		size, within := w.Resize(pre, post, bson.EncodedSize(pre), levels, memo)
		if want := bson.EncodedSize(post); size != want {
			return fmt.Errorf("sized by difference at %d bytes, encodes to %d", size, want)
		}
		if want := bson.NestsWithin(post, levels); within != want {
			return fmt.Errorf("within %d levels by difference: %v, NestsWithin: %v", levels, within, want)
		}
	}
	return nil
}

// TestApplyUpdateSharingEquivalence: on 10,000 seeded cases, ApplyUpdate on a
// shallow copy gives the post-image, the changed flag and the error the deep
// copying specification gives, and writes nothing it shares: the pre-image,
// the updates, and an earlier post-image keep their encodings while later
// updates build on them (a chain: pre → a → b) and beside them (a branch:
// pre → c, the way a pinned version and the current one both descend from
// one document). Every array starts with spare capacity. Each shared update
// also passes the size oracle (checkResize), with one memo for all of them
// as storage keeps one for an op.
func TestApplyUpdateSharingEquivalence(t *testing.T) {
	g := updateGen{rand.New(rand.NewSource(45))}
	var memo SizeMemo
	for i := 0; i < 10000; i++ {
		pre := g.doc(3)
		pre.Set(bson.IDKey, int64(1))
		withSpareCapacity(pre)
		u1, u2 := g.update(), g.update()
		withSpareCapacity(u1)
		withSpareCapacity(u2)
		preBytes, u1Bytes, u2Bytes := bson.Marshal(pre), bson.Marshal(u1), bson.Marshal(u2)

		check := func(step string, got, want updateOutcome) {
			t.Helper()
			if !sameOutcome(got, want) {
				t.Fatalf("case %d %s: pre %v\nu1 %v\nu2 %v\ngot  %v\nwant %v", i, step, pre, u1, u2, got, want)
			}
		}
		checkSize := func(step string, from *bson.Doc, got updateOutcome) {
			t.Helper()
			if err := checkResize(from, got, &memo); err != nil {
				t.Fatalf("case %d %s: %v\npre %v\nu1 %v\nu2 %v\npost %v", i, step, err, pre, u1, u2, got.doc)
			}
		}
		a, specA := sharedUpdate(pre, u1), specUpdate(pre, u1)
		check("pre+u1", a, specA)
		checkSize("pre+u1", pre, a)
		aBytes := bson.Marshal(a.doc)
		if a.err == nil {
			b := sharedUpdate(a.doc, u2)
			check("pre+u1+u2", b, specUpdate(specA.doc, u2))
			checkSize("pre+u1+u2", a.doc, b)
			bBytes := bson.Marshal(b.doc)
			c := sharedUpdate(pre, u2)
			check("pre+u2", c, specUpdate(pre, u2))
			checkSize("pre+u2", pre, c)
			if !bytes.Equal(bson.Marshal(b.doc), bBytes) {
				t.Fatalf("case %d: a branch from the pre-image wrote into the chain's post-image %v", i, b.doc)
			}
		}
		for _, kept := range []struct {
			name string
			doc  *bson.Doc
			was  []byte
		}{{"pre-image", pre, preBytes}, {"u1", u1, u1Bytes}, {"u2", u2, u2Bytes}, {"post-image of u1", a.doc, aBytes}} {
			if !bytes.Equal(bson.Marshal(kept.doc), kept.was) {
				t.Fatalf("case %d: the %s changed: %v\nu1 %v\nu2 %v", i, kept.name, kept.doc, u1, u2)
			}
		}
	}
}
