package bson

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func sampleDoc() *Doc {
	return D(
		IDKey, NewObjectID(),
		"ca_address_sk", 1,
		"ca_address_id", "AAAAAAAABAAAAAAA",
		"ca_street_number", 18,
		"ca_street_name", "Jackson",
		"price", 12.75,
		"active", true,
		"missing", nil,
		"created", time.Date(2015, 11, 9, 12, 0, 0, 0, time.UTC),
		"tags", A("retail", "tpcds", 42),
		"address", D("city", "Cincinnati", "state", "OH"),
	)
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	d := sampleDoc()
	data := Marshal(d)
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !d.Equal(got) {
		t.Fatalf("round trip mismatch:\n in: %s\nout: %s", d, got)
	}
}

func TestEncodedSizeMatchesMarshal(t *testing.T) {
	d := sampleDoc()
	if got, want := EncodedSize(d), len(Marshal(d)); got != want {
		t.Fatalf("EncodedSize = %d, len(Marshal) = %d", got, want)
	}
	empty := NewDoc(0)
	if got, want := EncodedSize(empty), len(Marshal(empty)); got != want {
		t.Fatalf("empty: EncodedSize = %d, len(Marshal) = %d", got, want)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatalf("nil input should error")
	}
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatalf("short input should error")
	}
	data := Marshal(D("a", 1))
	data[0] = 0xff // corrupt the length prefix
	if _, err := Unmarshal(data); err == nil {
		t.Fatalf("corrupt length should error")
	}
	data = Marshal(D("a", 1))
	if _, err := Unmarshal(append(data, 0x00)); err == nil {
		t.Fatalf("trailing bytes should error")
	}
}

func TestUnmarshalPrefixStreams(t *testing.T) {
	a := D("n", 1)
	b := D("n", 2)
	data := append(Marshal(a), Marshal(b)...)
	first, rest, err := UnmarshalPrefix(data)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	if !first.Equal(a) {
		t.Fatalf("first = %s", first)
	}
	second, rest, err := UnmarshalPrefix(rest)
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if !second.Equal(b) || len(rest) != 0 {
		t.Fatalf("second = %s, rest = %d bytes", second, len(rest))
	}
}

// randomEncodableDoc builds documents restricted to values that survive the
// encoding exactly (times truncated to milliseconds, UTC).
func randomEncodableDoc(r *rand.Rand, depth int) *Doc {
	d := NewDoc(3)
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		d.Set(randomKey(r)+string(rune('0'+i)), randomEncodableValue(r, depth))
	}
	return d
}

func randomEncodableValue(r *rand.Rand, depth int) any {
	kind := r.Intn(9)
	if depth <= 0 && (kind == 6 || kind == 7) {
		kind = r.Intn(6)
	}
	switch kind {
	case 0:
		return nil
	case 1:
		return int64(r.Int63n(1 << 40))
	case 2:
		return r.NormFloat64() * 1e6
	case 3:
		return randomKey(r)
	case 4:
		return r.Intn(2) == 0
	case 5:
		return time.UnixMilli(int64(r.Intn(1 << 30))).UTC()
	case 6:
		return randomEncodableDoc(r, depth-1)
	case 7:
		n := r.Intn(4)
		arr := make([]any, n)
		for i := range arr {
			arr[i] = randomEncodableValue(r, depth-1)
		}
		return arr
	default:
		return NewObjectIDFromTime(time.UnixMilli(int64(r.Intn(1 << 30))))
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 250; i++ {
		d := randomEncodableDoc(r, 3)
		data := Marshal(d)
		if len(data) != EncodedSize(d) {
			t.Fatalf("size mismatch for %s: %d vs %d", d, len(data), EncodedSize(d))
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", d, err)
		}
		if !d.Equal(got) {
			t.Fatalf("round trip mismatch:\n in: %s\nout: %s", d, got)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := sampleDoc()
	js := d.ToJSON()
	got, err := FromJSONString(js)
	if err != nil {
		t.Fatalf("FromJSON: %v", err)
	}
	if !d.Equal(got) {
		t.Fatalf("JSON round trip mismatch:\n in: %s\nout: %s", d, got)
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		d := randomEncodableDoc(r, 2)
		got, err := FromJSON([]byte(d.ToJSON()))
		if err != nil {
			t.Fatalf("FromJSON(%s): %v", d.ToJSON(), err)
		}
		if !d.Equal(got) {
			t.Fatalf("JSON round trip mismatch:\n in: %s\nout: %s", d, got)
		}
	}
}

func TestFromJSONErrors(t *testing.T) {
	if _, err := FromJSONString("[1,2]"); err == nil {
		t.Fatalf("top-level array should be rejected")
	}
	if _, err := FromJSONString("{"); err == nil {
		t.Fatalf("truncated object should be rejected")
	}
	if _, err := FromJSONString(`{"a": }`); err == nil {
		t.Fatalf("bad value should be rejected")
	}
}

func TestFromJSONNumbersAndNesting(t *testing.T) {
	d, err := FromJSONString(`{"i": 42, "f": 4.5, "neg": -3, "arr": [1, {"x": true}], "s": "hi", "n": null}`)
	if err != nil {
		t.Fatalf("FromJSON: %v", err)
	}
	if v, _ := d.Get("i"); v != int64(42) {
		t.Errorf("i = %v (%T), want int64 42", v, v)
	}
	if v, _ := d.Get("f"); v != 4.5 {
		t.Errorf("f = %v, want 4.5", v)
	}
	if v, _ := d.Get("neg"); v != int64(-3) {
		t.Errorf("neg = %v, want -3", v)
	}
	arr, _ := d.Get("arr")
	if inner, ok := arr.([]any)[1].(*Doc); !ok {
		t.Errorf("nested doc in array missing")
	} else if v, _ := inner.Get("x"); v != true {
		t.Errorf("nested bool = %v", v)
	}
	if v, _ := d.Get("n"); v != nil {
		t.Errorf("null = %v", v)
	}
}

func TestDecodeJSONStream(t *testing.T) {
	input := `{"a":1}
{"a":2}
{"a":3}`
	var got []int64
	err := DecodeJSONStream(strings.NewReader(input), func(d *Doc) error {
		v, _ := d.Get("a")
		got = append(got, v.(int64))
		return nil
	})
	if err != nil {
		t.Fatalf("DecodeJSONStream: %v", err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	// A callback error stops the stream and is returned.
	wantErr := DecodeJSONStream(strings.NewReader(input), func(*Doc) error {
		return errStop
	})
	if wantErr != errStop {
		t.Fatalf("callback error not propagated: %v", wantErr)
	}
}

var errStop = errors.New("stop")

// TestEncodedSizeCountsArrayIndexDigits pins EncodedSize == len(Marshal)
// where the array keys change width: 10, 100 and 1000 elements.
func TestEncodedSizeCountsArrayIndexDigits(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001} {
		arr := make([]any, n)
		for i := range arr {
			arr[i] = int64(i)
		}
		d := D("arr", arr, "nested", D("again", arr))
		data := Marshal(d)
		if got := EncodedSize(d); got != len(data) {
			t.Errorf("%d elements: EncodedSize = %d, len(Marshal) = %d", n, got, len(data))
		}
		back, err := Unmarshal(data)
		if err != nil || !back.Equal(d) {
			t.Errorf("%d elements: round trip: %v", n, err)
		}
	}
}

// TestAppendFunctionsAgreeWithMarshal builds one document with the Append
// functions, as the wire package builds a frame, and with D and Marshal.
func TestAppendFunctionsAgreeWithMarshal(t *testing.T) {
	inner := sampleDoc()
	want := Marshal(D("s", "text", "n", int64(1)<<40, "flag", true, "doc", inner,
		"docs", []any{inner, NewDoc(0), inner}, "none", []any{}))

	prefix := []byte("kept")
	got, start := BeginDoc(prefix)
	got = AppendString(got, "s", "text")
	got = AppendInt64(got, "n", int64(1)<<40)
	got = AppendValue(got, "flag", true)
	got = AppendValue(got, "doc", inner)
	got, n := AppendDocs(got, "docs", []*Doc{inner, NewDoc(0), inner}, math.MaxInt)
	got, none := AppendDocs(got, "none", []*Doc{}, math.MaxInt)
	if n != 3 || none != 0 {
		t.Fatalf("AppendDocs appended %d and %d documents, want 3 and 0", n, none)
	}
	got = EndDoc(got, start)
	if string(got[:len(prefix)]) != "kept" || string(got[len(prefix):]) != string(want) {
		t.Fatalf("appended encoding differs from Marshal:\n got %x\nwant %x", got[len(prefix):], want)
	}
	if again := AppendDoc(nil, inner); string(again) != string(Marshal(inner)) {
		t.Fatalf("AppendDoc differs from Marshal")
	}
}

// TestAppendDocsStopsAtItsLimit checks that the array ends before the
// document that would cross the limit, that the first one is exempt, and that
// what was appended is a well-formed array of the documents counted.
func TestAppendDocsStopsAtItsLimit(t *testing.T) {
	inner := sampleDoc()
	docs := []*Doc{inner, inner, inner, inner}
	one := len(Marshal(inner)) + 3 // tag, a one-digit key and its NUL
	for _, tc := range []struct{ limit, want int }{
		{0, 1}, {one, 1}, {20 + 2*one, 2}, {20 + 3*one, 3}, {math.MaxInt, 4},
	} {
		buf, start := BeginDoc([]byte("kept"))
		buf, n := AppendDocs(buf, "docs", docs, tc.limit)
		buf = EndDoc(buf, start)
		if n != tc.want {
			t.Errorf("limit %d: %d documents appended, want %d", tc.limit, n, tc.want)
		}
		if n > 1 && len(buf)-2 > tc.limit { // the two terminators
			t.Errorf("limit %d: buffer is %d bytes", tc.limit, len(buf))
		}
		d, err := Unmarshal(buf[start:])
		if err != nil {
			t.Fatalf("limit %d: %v", tc.limit, err)
		}
		if arr, _ := d.Get("docs"); len(arr.([]any)) != n {
			t.Errorf("limit %d: the array holds %d documents, AppendDocs said %d", tc.limit, len(arr.([]any)), n)
		}
	}
}

// TestElementsReadsWhatWasAppended reads a document's fields one by one, the
// way the wire package reads a frame.
func TestElementsReadsWhatWasAppended(t *testing.T) {
	inner := D("a", 1)
	data := Marshal(D("s", "text", "n", 7, "docs", []any{inner, "not a document", inner}, "doc", inner))
	it, err := ReadElements(data)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for it.More() {
		e, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, string(e.Key))
		switch string(e.Key) {
		case "s":
			if s, ok := e.Str(); !ok || s != "text" {
				t.Errorf("Str = %q, %v", s, ok)
			}
		case "n":
			if _, ok := e.Str(); ok {
				t.Errorf("Str accepted an int64")
			}
			if v, err := e.Value(); err != nil || v != int64(7) {
				t.Errorf("Value = %v, %v", v, err)
			}
		case "docs":
			docs, err := e.Docs()
			if err != nil || len(docs) != 2 || !docs[0].Equal(inner) || !docs[1].Equal(inner) {
				t.Errorf("Docs = %v, %v", docs, err)
			}
		case "doc":
			if docs, err := e.Docs(); docs != nil || err != nil {
				t.Errorf("Docs of a document = %v, %v", docs, err)
			}
			if v, err := e.Value(); err != nil || !v.(*Doc).Equal(inner) {
				t.Errorf("Value = %v, %v", v, err)
			}
		}
	}
	if strings.Join(keys, ",") != "s,n,docs,doc" {
		t.Errorf("keys = %v", keys)
	}
	if _, err := ReadElements(append(data, 0)); err == nil {
		t.Errorf("ReadElements accepted trailing bytes")
	}
}

// TestUnmarshalRefusesDuplicateFields pins the decoder's choice for a
// document that names a field twice, which Marshal never writes: it is
// refused, not folded into one field. The second document repeats a name
// among enough fields to get past any small-document shortcut.
func TestUnmarshalRefusesDuplicateFields(t *testing.T) {
	two, start := BeginDoc(nil)
	two = AppendInt64(two, "dup", 1)
	two = AppendInt64(two, "dup", 2)
	two = EndDoc(two, start)
	if d, err := Unmarshal(two); err == nil || !strings.Contains(err.Error(), "duplicate field") {
		t.Fatalf("Unmarshal of {dup: 1, dup: 2} = %v, %v", d, err)
	}

	many, start := BeginDoc(nil)
	for i := 0; i < 300; i++ {
		many = AppendInt64(many, "field"+string(rune('a'+i%26))+string(rune('a'+i/26)), int64(i))
	}
	ok := EndDoc(append([]byte(nil), many...), start)
	if d, err := Unmarshal(ok); err != nil || d.Len() != 300 {
		t.Fatalf("300 distinct fields: %v", err)
	}
	many = AppendInt64(many, "fieldca", 0)
	if _, err := Unmarshal(EndDoc(many, start)); err == nil || !strings.Contains(err.Error(), `duplicate field "fieldca"`) {
		t.Fatalf("a repeat among 300 fields: %v", err)
	}
	// In an array the keys are positions and are not read at all.
	arr, start := BeginDoc(nil)
	arr = append(arr, tagArray, 'a', 0)
	var inner int
	arr, inner = BeginDoc(arr)
	arr = AppendInt64(arr, "0", 1)
	arr = AppendInt64(arr, "0", 2)
	arr = EndDoc(EndDoc(arr, inner), start)
	if d, err := Unmarshal(arr); err != nil || !d.Equal(D("a", A(1, 2))) {
		t.Fatalf("array with repeated keys = %v, %v", d, err)
	}
}

// nested returns levels documents one inside the other, seven bytes a level.
func nested(levels int) []byte {
	data := make([]byte, 0, 7*levels)
	for i := levels; i > 1; i-- {
		data = binary.LittleEndian.AppendUint32(data, uint32(7*i-2))
		data = append(data, tagDocument, 0x00)
	}
	data = append(data, 5, 0, 0, 0, 0)
	for i := 1; i < levels; i++ {
		data = append(data, 0x00)
	}
	return data
}

// TestUnmarshalCapsNesting checks the depth cap on both sides of MaxDepth,
// for documents and arrays alike, and that a megabyte of nesting is an error
// and not a stack the size of the input.
func TestUnmarshalCapsNesting(t *testing.T) {
	if _, err := Unmarshal(nested(MaxDepth)); err != nil {
		t.Fatalf("%d levels: %v", MaxDepth, err)
	}
	if _, err := Unmarshal(nested(MaxDepth + 1)); err == nil || !strings.Contains(err.Error(), "nest too deeply") {
		t.Fatalf("%d levels: %v", MaxDepth+1, err)
	}
	if _, err := Unmarshal(nested(1 << 20 / 7)); err == nil {
		t.Fatalf("a megabyte of nested documents was accepted")
	}
	var v any = int64(1)
	for i := 0; i < MaxDepth-1; i++ {
		v = []any{v}
	}
	if _, err := Unmarshal(Marshal(D("a", v))); err != nil {
		t.Fatalf("arrays to level %d: %v", MaxDepth, err)
	}
	if _, err := Unmarshal(Marshal(D("a", []any{v}))); err == nil {
		t.Fatalf("arrays to level %d were accepted", MaxDepth+1)
	}
	// The same cap through the element reader: the frame is the first level.
	frame, start := BeginDoc(nil)
	frame = append(append(frame, tagDocument, 'a', 0), nested(MaxDepth-1)...)
	frame = EndDoc(frame, start)
	it, err := ReadElements(frame)
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := it.Next(); e.tag != tagDocument {
		t.Fatalf("element tag = %#x", e.tag)
	} else if _, err := e.Value(); err != nil {
		t.Fatalf("%d levels through the element reader: %v", MaxDepth, err)
	}
	frame, start = BeginDoc(nil)
	frame = append(append(frame, tagDocument, 'a', 0), nested(MaxDepth)...)
	frame = EndDoc(frame, start)
	it, _ = ReadElements(frame)
	if e, _ := it.Next(); e.tag != tagDocument {
		t.Fatalf("element tag = %#x", e.tag)
	} else if _, err := e.Value(); err == nil {
		t.Fatalf("%d levels were read through the element reader", MaxDepth+1)
	}
}

// TestNestsWithin counts levels the way the decoders do: the document is the
// first, and arrays count.
func TestNestsWithin(t *testing.T) {
	flat := D("a", 1, "b", "x")
	three := D("a", []any{int64(1), D("b", 2)})
	for _, tc := range []struct {
		d      *Doc
		levels int
		want   bool
	}{
		{flat, 1, true}, {flat, 0, false}, {NewDoc(0), 1, true}, {nil, 1, true},
		{three, 3, true}, {three, 2, false}, {D("a", []any{}), 2, true}, {D("a", []any{}), 1, false},
	} {
		if got := NestsWithin(tc.d, tc.levels); got != tc.want {
			t.Errorf("NestsWithin(%v, %d) = %v", tc.d, tc.levels, got)
		}
	}
	// Whatever nests within MaxDepth decodes, and nothing deeper does.
	d, err := Unmarshal(nested(MaxDepth))
	if err != nil || !NestsWithin(d, MaxDepth) || NestsWithin(d, MaxDepth-1) {
		t.Errorf("%d nested documents: NestsWithin disagrees with the decoder (%v)", MaxDepth, err)
	}
}

// TestUnmarshalChecksLengthsAndTerminators corrupts one byte at a time of the
// places the decoder must not take on trust.
func TestUnmarshalChecksLengthsAndTerminators(t *testing.T) {
	good := Marshal(D("s", "text", "d", D("x", 1), "tail", true))
	if _, err := Unmarshal(good); err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, at int, b byte) {
		t.Helper()
		data := append([]byte(nil), good...)
		data[at] = b
		if d, err := Unmarshal(data); err == nil {
			t.Errorf("%s: accepted as %v", name, d)
		}
	}
	str := 4 + 1 + 2 // length prefix, tag, "s\0": the string's own length
	corrupt("string without its NUL", str+4+4, 'x')
	corrupt("string longer than said", str, 4)
	corrupt("string length zero", str, 0)
	doc := str + 4 + 5 + 1 + 2 // past the string, then tag, "d\0": the nested document
	corrupt("nested document shorter than its elements", doc, good[doc]-1)
	corrupt("nested document longer than its elements", doc, good[doc]+1)
	corrupt("nested document running past its parent", doc, 200)
	corrupt("unknown tag", 4, 0x7f)
	corrupt("unterminated document", len(good)-1, 1)
}
