package bson

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Binary encoding of documents. The format is a compact length-prefixed
// layout reminiscent of BSON: it is used for persistence snapshots, for the
// write-ahead log, for the frames of the wire protocol, and as the canonical
// definition of a document's on-disk size (which in turn drives the 16 MB
// document limit and the selectivity measurements of Table 4.4).
//
// A document is [int32 length, itself included][elements][0x00]; an element is
// [tag][key, NUL-terminated][value]; an array is a document whose keys are the
// decimal indexes. Dates are stored as milliseconds since the epoch.

// Element type tags in the binary encoding.
const (
	tagNull     = 0x0A
	tagFloat    = 0x01
	tagInt64    = 0x12
	tagString   = 0x02
	tagDocument = 0x03
	tagArray    = 0x04
	tagObjectID = 0x07
	tagBool     = 0x08
	tagDate     = 0x09
)

// MaxDepth is how many levels of documents and arrays, the outermost
// included, a decoder descends into before it refuses the input (the real
// server's limit). The decoders recurse once a level, so without it a few
// megabytes of seven-byte nested documents — from the network, a log or a
// snapshot — would overflow the goroutine stack, which ends the process.
const MaxDepth = 100

// MaxDocumentDepth is how many levels a document may nest to be written: one
// a client hands the store, as data or as the filter or the update of a
// write, and one an update builds there. It is lower than MaxDepth because
// the program wraps such a document before a decoder meets it again — three
// levels in a log record, two in a reply, four in a bulkWrite request and in
// a change event — and the rest of the difference is room for wrappers to
// come. The storage engine enforces it, so that whatever it has accepted can
// be logged, recovered, snapshotted and returned.
const MaxDocumentDepth = MaxDepth - 8

// NestsWithin reports whether d, itself the first level, nests at most
// levels levels of documents and arrays.
func NestsWithin(d *Doc, levels int) bool {
	if levels < 1 {
		return false
	}
	for _, f := range d.Fields() {
		if !ValueNestsWithin(f.Value, levels-1) {
			return false
		}
	}
	return true
}

// ValueNestsWithin reports whether v nests at most levels levels of
// documents and arrays, itself the first when it is one: NestsWithin for a
// document, and a scalar nests none.
func ValueNestsWithin(v any, levels int) bool {
	switch t := v.(type) {
	case *Doc:
		return NestsWithin(t, levels)
	case []any:
		if levels < 1 {
			return false
		}
		for _, e := range t {
			if !ValueNestsWithin(e, levels-1) {
				return false
			}
		}
	}
	return true
}

// Marshal encodes a document into its binary representation.
func Marshal(d *Doc) []byte {
	return AppendDoc(make([]byte, 0, EncodedSize(d)), d)
}

// EncodedSize returns the size in bytes of the binary encoding of d without
// materializing it. This is the document "size" everywhere the engine needs
// one (16 MB limit, chunk accounting, result-set selectivity).
func EncodedSize(d *Doc) int {
	size := 4 + 1 // length prefix + terminator
	for _, f := range d.Fields() {
		size += 1 + len(f.Key) + 1 + ValueSize(f.Value)
	}
	return size
}

// ValueSize returns the size in bytes of v's encoding as an element value:
// what follows the element's type tag and key. A value outside the canonical
// set is sized as the string it would be stored as.
func ValueSize(v any) int {
	switch t := v.(type) {
	case nil:
		return 0
	case float64, int64, time.Time:
		return 8
	case string:
		return 4 + len(t) + 1
	case bool:
		return 1
	case ObjectID:
		return 12
	case *Doc:
		return EncodedSize(t)
	case []any:
		size := 4 + 1
		// An element's key is its index in decimal: one digit below 10, two
		// below 100, and so on.
		digits, next := 1, 10
		for i, e := range t {
			if i == next {
				digits, next = digits+1, next*10
			}
			size += 1 + digits + 1 + ValueSize(e)
		}
		return size
	default:
		return ValueSize(fmt.Sprintf("%v", t))
	}
}

// AppendDoc appends the binary encoding of d to dst: Marshal into a buffer
// the caller owns and reuses.
func AppendDoc(dst []byte, d *Doc) []byte {
	dst, start := BeginDoc(dst)
	for _, f := range d.Fields() {
		dst = AppendValue(dst, f.Key, f.Value)
	}
	return EndDoc(dst, start)
}

// BeginDoc opens a document in dst, to be filled with the Append functions
// and closed with EndDoc, which takes the offset returned here. It is how a
// caller encodes a document it holds as something other than a *Doc (the wire
// package's request and reply frames) without building one first.
func BeginDoc(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

// EndDoc closes the document BeginDoc opened at start.
func EndDoc(dst []byte, start int) []byte {
	dst = append(dst, 0x00)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start))
	return dst
}

// AppendValue appends the element key: v, for any value of the canonical set.
func AppendValue(dst []byte, key string, v any) []byte {
	return appendBody(appendHeader(dst, 0, key), len(dst), v)
}

// AppendString is AppendValue for a string the caller has not boxed.
func AppendString(dst []byte, key, s string) []byte {
	return appendStringBody(appendHeader(dst, tagString, key), s)
}

// AppendInt64 is AppendValue for an int64 the caller has not boxed.
func AppendInt64(dst []byte, key string, n int64) []byte {
	return binary.LittleEndian.AppendUint64(appendHeader(dst, tagInt64, key), uint64(n))
}

// AppendDocs appends the element key: [docs...], an array of documents,
// without the []any an AppendValue of the same array would need. It stops
// before a document, the first excepted, that would take dst past limit
// bytes, and returns how many documents the array holds.
func AppendDocs(dst []byte, key string, docs []*Doc, limit int) ([]byte, int) {
	dst, start := BeginDoc(appendHeader(dst, tagArray, key))
	n := 0
	for ; n < len(docs); n++ {
		before := len(dst)
		dst = append(dst, tagDocument)
		dst = appendIndexKey(dst, n)
		dst = AppendDoc(dst, docs[n])
		if len(dst) > limit && n > 0 {
			dst = dst[:before]
			break
		}
	}
	return EndDoc(dst, start), n
}

// appendHeader appends what precedes an element's value: tag and name.
func appendHeader(dst []byte, tag byte, key string) []byte {
	dst = append(dst, tag)
	dst = append(dst, key...)
	return append(dst, 0x00)
}

func appendIndexKey(dst []byte, i int) []byte {
	return append(strconv.AppendInt(dst, int64(i), 10), 0x00)
}

func appendStringBody(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)+1))
	dst = append(dst, s...)
	return append(dst, 0x00)
}

// appendBody appends the encoding of v, whose element header is already in
// dst, and stores v's tag in the header's first byte, dst[tagAt].
func appendBody(dst []byte, tagAt int, v any) []byte {
	var tag byte
	switch t := v.(type) {
	case nil:
		tag = tagNull
	case float64:
		tag = tagFloat
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
	case int64:
		tag = tagInt64
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t))
	case string:
		tag = tagString
		dst = appendStringBody(dst, t)
	case bool:
		tag = tagBool
		if t {
			dst = append(dst, 0x01)
		} else {
			dst = append(dst, 0x00)
		}
	case ObjectID:
		tag = tagObjectID
		dst = append(dst, t[:]...)
	case time.Time:
		tag = tagDate
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t.UnixMilli()))
	case *Doc:
		tag = tagDocument
		dst = AppendDoc(dst, t)
	case []any:
		tag = tagArray
		var start int
		dst, start = BeginDoc(dst)
		for i, e := range t {
			at := len(dst)
			dst = append(dst, 0)
			dst = appendIndexKey(dst, i)
			dst = appendBody(dst, at, e)
		}
		dst = EndDoc(dst, start)
	default:
		// Normalize should have eliminated unknown types; encode as string to
		// stay total.
		return appendBody(dst, tagAt, fmt.Sprintf("%v", t))
	}
	dst[tagAt] = tag
	return dst
}

// Unmarshal decodes a binary document produced by Marshal.
func Unmarshal(data []byte) (*Doc, error) {
	d, rest, err := UnmarshalPrefix(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("bson: %d trailing bytes after document", len(rest))
	}
	return d, nil
}

// UnmarshalPrefix decodes one document from the front of data and returns the
// remaining bytes, allowing documents to be streamed back to back.
func UnmarshalPrefix(data []byte) (*Doc, []byte, error) {
	body, rest, err := splitDoc(data)
	if err != nil {
		return nil, nil, err
	}
	d, err := readDoc(body, MaxDepth)
	if err != nil {
		return nil, nil, err
	}
	return d, rest, nil
}

// splitDoc checks the length prefix and the terminator of the document at the
// front of data and returns the bytes of its elements and what follows it.
func splitDoc(data []byte) (body, rest []byte, err error) {
	if len(data) < 5 {
		return nil, nil, fmt.Errorf("bson: document truncated (%d bytes)", len(data))
	}
	length := int(binary.LittleEndian.Uint32(data))
	if length < 5 || length > len(data) {
		return nil, nil, fmt.Errorf("bson: invalid document length %d (have %d bytes)", length, len(data))
	}
	if data[length-1] != 0x00 {
		return nil, nil, fmt.Errorf("bson: missing document terminator")
	}
	return data[4 : length-1], data[length:], nil
}

// Elements reads the elements of one encoded document in order, leaving
// each value encoded until it is asked for: how a caller that wants a
// document's fields in variables of its own (the wire package's Request and
// Response) reads them without a *Doc in between.
//
//	for it.More() {
//		e, err := it.Next()
//		...
//	}
type Elements struct {
	body  []byte
	depth int // levels the values of these elements may still nest
}

// ReadElements opens doc, which must be exactly one encoded document, for
// reading. Its values are held to MaxDepth, doc itself the first level.
func ReadElements(doc []byte) (Elements, error) {
	body, rest, err := splitDoc(doc)
	if err != nil {
		return Elements{}, err
	}
	if len(rest) != 0 {
		return Elements{}, fmt.Errorf("bson: %d trailing bytes after document", len(rest))
	}
	return Elements{body: body, depth: MaxDepth - 1}, nil
}

// More reports whether Next has another element to read.
func (it *Elements) More() bool { return len(it.body) > 0 }

// Element is one field of an encoded document. Key aliases the buffer the
// document was read from, as the element's still-encoded value does, so an
// Element is good until that buffer is reused; what Value and Str return
// shares nothing with it.
type Element struct {
	Key   []byte
	tag   byte
	val   []byte
	depth int
}

// Next splits the next element off the document. It checks that the element
// lies inside the document — tag known, key terminated, a string's or nested
// document's length and terminator in place — and nothing inside a nested
// value. An error names the field it is about, the start of a long name, and
// not the fields around it: the message stays small beside the input.
func (it *Elements) Next() (Element, error) {
	tag := it.body[0]
	keyLen := bytes.IndexByte(it.body[1:], 0x00)
	if keyLen < 0 {
		return Element{}, fmt.Errorf("bson: unterminated field name")
	}
	key, val := it.body[1:1+keyLen], it.body[2+keyLen:]
	n := 0
	switch tag {
	case tagNull:
	case tagBool:
		n = 1
	case tagFloat, tagInt64, tagDate:
		n = 8
	case tagObjectID:
		n = 12
	case tagString, tagDocument, tagArray:
		if len(val) < 4 {
			return Element{}, fmt.Errorf("bson: field %.32q: truncated length", key)
		}
		n = int(binary.LittleEndian.Uint32(val))
		if tag == tagString {
			n += 4 // a string's length counts its bytes and the NUL, a document's the prefix too
		}
		if n < 5 || n > len(val) || val[n-1] != 0x00 {
			return Element{}, fmt.Errorf("bson: field %.32q: invalid length %d (have %d bytes)", key, n, len(val))
		}
	default:
		return Element{}, fmt.Errorf("bson: field %.32q: unknown element tag 0x%02x", key, tag)
	}
	if n > len(val) {
		return Element{}, fmt.Errorf("bson: field %.32q: value truncated", key)
	}
	it.body = val[n:]
	return Element{Key: key, tag: tag, val: val[:n], depth: it.depth}, nil
}

// count returns the number of elements left, checking each as Next does.
func (it Elements) count() (int, error) {
	n := 0
	for it.More() {
		if _, err := it.Next(); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// Str returns the element's value when it is a string.
func (e Element) Str() (string, bool) {
	if e.tag != tagString {
		return "", false
	}
	return string(e.val[4 : len(e.val)-1]), true
}

// Docs decodes the element's value and, when it is an array, returns the
// documents among its elements: what AppendDocs wrote. Any other value gives
// nil.
func (e Element) Docs() ([]*Doc, error) {
	if e.tag != tagArray {
		_, err := e.Value()
		return nil, err
	}
	return readValues(e.val[4:len(e.val)-1], e.depth, func(docs []*Doc, _ Element, v any) ([]*Doc, error) {
		if d, ok := v.(*Doc); ok {
			docs = append(docs, d)
		}
		return docs, nil
	})
}

// Value decodes the element's value.
func (e Element) Value() (any, error) {
	switch e.tag {
	case tagNull:
		return nil, nil
	case tagFloat:
		return math.Float64frombits(binary.LittleEndian.Uint64(e.val)), nil
	case tagInt64:
		return int64(binary.LittleEndian.Uint64(e.val)), nil
	case tagString:
		return string(e.val[4 : len(e.val)-1]), nil
	case tagBool:
		return e.val[0] != 0x00, nil
	case tagObjectID:
		return ObjectID(e.val), nil
	case tagDate:
		return time.UnixMilli(int64(binary.LittleEndian.Uint64(e.val))).UTC(), nil
	case tagDocument:
		d, err := readDoc(e.val[4:len(e.val)-1], e.depth)
		if err != nil {
			return nil, err // not a nil *Doc in a non-nil interface
		}
		return d, nil
	default: // tagArray: Next admits no other tag
		return readArray(e.val[4:len(e.val)-1], e.depth)
	}
}

var errTooDeep = errors.New("bson: documents nest too deeply")

// readValues decodes the elements of body, a document's or an array's, which
// with whatever nests inside them may use depth levels, and hands each to
// keep to add to the result. The elements are counted first, so the result is
// one allocation of exactly their number.
func readValues[T any](body []byte, depth int, keep func([]T, Element, any) ([]T, error)) ([]T, error) {
	if depth < 1 {
		return nil, errTooDeep
	}
	it := Elements{body: body, depth: depth - 1}
	n, err := it.count()
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, n)
	for it.More() {
		e, _ := it.Next() // count has checked it
		v, err := e.Value()
		if err != nil {
			return nil, err
		}
		if out, err = keep(out, e, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// linearFields is how many fields a document may have and still be searched
// for a repeated name field by field; a wider one keeps its names in a set,
// so that decoding stays linear in the input. Unmarshal of 16 fields takes
// 1.7 µs searched and 2.0 µs with the set, of 60 fields 10 µs and 6.8 µs, of
// 300 fields 115 µs and 33 µs.
const linearFields = 16

// readDoc builds the document whose elements are body. Fields are appended,
// not Set, and a document that names a field twice is refused.
func readDoc(body []byte, depth int) (*Doc, error) {
	var names map[string]struct{}
	fields, err := readValues(body, depth, func(fields []Field, e Element, v any) ([]Field, error) {
		f := Field{Key: string(e.Key), Value: v}
		repeated := false
		if cap(fields) <= linearFields {
			for i := range fields {
				repeated = repeated || fields[i].Key == f.Key
			}
		} else {
			if names == nil {
				names = make(map[string]struct{}, cap(fields))
			}
			_, repeated = names[f.Key]
			names[f.Key] = struct{}{}
		}
		if repeated {
			return nil, fmt.Errorf("bson: duplicate field %.32q", f.Key)
		}
		return append(fields, f), nil
	})
	if err != nil {
		return nil, err
	}
	return &Doc{fields: fields}, nil
}

// readArray is readDoc for an array: the values in order, the keys ignored.
func readArray(body []byte, depth int) ([]any, error) {
	return readValues(body, depth, func(arr []any, _ Element, v any) ([]any, error) {
		return append(arr, v), nil
	})
}
