package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"docstore/internal/bson"
)

// A frame is a document, so the older tests, which speak of the codec as
// document in and document out, keep their words: these are Marshal and
// Unmarshal around the frame codec. They panic where the codec fails, which
// those tests never expect.

func (r *Request) encode() *bson.Doc  { return mustUnmarshal(r.appendFrame(nil)) }
func (r *Response) encode() *bson.Doc { return mustUnmarshal(r.appendFrame(nil, nil)) }

func mustUnmarshal(frame []byte) *bson.Doc {
	d, err := bson.Unmarshal(frame)
	if err != nil {
		panic(err)
	}
	return d
}

func decodeRequest(d *bson.Doc) *Request {
	r, err := readRequest(bson.Marshal(d))
	if err != nil {
		panic(err)
	}
	return r
}

func decodeResponse(d *bson.Doc) *Response {
	r, err := readResponse(bson.Marshal(d))
	if err != nil {
		panic(err)
	}
	return r
}

// fillStruct sets every exported field of the struct v points at to a
// non-zero value drawn from r, and fails the test on a field type it has no
// generator for — so a field of a new kind cannot join Request or Response
// unnoticed by the round-trip test.
func fillStruct(t *testing.T, r *rand.Rand, v any) {
	t.Helper()
	doc := func() *bson.Doc {
		return bson.D("k", r.Int63n(1<<40)+1, "s", fmt.Sprintf("s%d", r.Int()), "nested", bson.D("a", bson.A(1, "x", nil)))
	}
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		sf := s.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		switch f := s.Field(i); f.Interface().(type) {
		case string:
			f.SetString(fmt.Sprintf("%s-%d", sf.Name, r.Int()))
		case int, int64:
			f.SetInt(r.Int63n(1<<40) + 1)
		case bool:
			f.SetBool(true)
		case *bson.Doc:
			f.Set(reflect.ValueOf(doc()))
		case []*bson.Doc:
			docs := make([]*bson.Doc, 1+r.Intn(12))
			for j := range docs {
				docs[j] = doc()
			}
			f.Set(reflect.ValueOf(docs))
		default:
			t.Fatalf("%s.%s: no generator for a field of type %s", s.Type().Name(), sf.Name, sf.Type)
		}
	}
}

// sameExported compares the exported fields of two structs of one type,
// documents by bson's own equality.
func sameExported(t *testing.T, want, got any) {
	t.Helper()
	w, g := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < w.NumField(); i++ {
		sf := w.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		same := false
		switch wv := w.Field(i).Interface().(type) {
		case *bson.Doc:
			same = wv.Equal(g.Field(i).Interface().(*bson.Doc))
		case []*bson.Doc:
			gv := g.Field(i).Interface().([]*bson.Doc)
			same = len(wv) == len(gv)
			for j := 0; same && j < len(wv); j++ {
				same = wv[j].Equal(gv[j])
			}
		default:
			same = wv == g.Field(i).Interface()
		}
		if !same {
			t.Errorf("%s.%s did not survive the codec: sent %v, got %v", w.Type().Name(), sf.Name, w.Field(i), g.Field(i))
		}
	}
}

// TestCodecCarriesEveryExportedField checks the hand-written codecs against
// the struct definitions: every exported field of Request and of Response,
// set to a non-zero value, comes back from appendFrame → read as it was sent,
// and a zero struct comes back zero.
func TestCodecCarriesEveryExportedField(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 50; i++ {
		req := &Request{}
		fillStruct(t, r, req)
		got, err := readRequest(req.appendFrame(nil))
		if err != nil {
			t.Fatalf("readRequest: %v", err)
		}
		sameExported(t, req, got)

		resp := &Response{}
		fillStruct(t, r, resp)
		back, err := readResponse(resp.appendFrame(nil, nil))
		if err != nil {
			t.Fatalf("readResponse: %v", err)
		}
		sameExported(t, resp, back)
	}
	if got, err := readRequest((&Request{}).appendFrame(nil)); err != nil || !reflect.DeepEqual(got, &Request{}) {
		t.Errorf("zero Request came back as %+v, %v", got, err)
	}
	if got, err := readResponse((&Response{}).appendFrame(nil, nil)); err != nil || !reflect.DeepEqual(got, &Response{}) {
		t.Errorf("zero Response came back as %+v, %v", got, err)
	}
}

// TestValueTypesSurviveTheSocket sends one document of every value kind
// through a real connection and back and compares what arrives with what the
// binary codec alone makes of it: same Go types, dates at the millisecond.
func TestValueTypesSurviveTheSocket(t *testing.T) {
	_, c := startServer(t)
	sent := bson.D(
		bson.IDKey, bson.NewObjectID(),
		"int", int64(1), "float", float64(1.0), "big", int64(1)<<53+1,
		"null", nil, "yes", true, "no", false, "str", "", "text", "héllo",
		"when", time.Date(2015, 11, 9, 12, 0, 0, 123456789, time.UTC),
		"emptyArr", bson.A(), "emptyDoc", bson.NewDoc(0),
		"arr", bson.A(int64(1), 1.0, bson.A(bson.A(), bson.D("x", nil)), bson.D("y", bson.A(2.5))),
		"doc", bson.D("a", bson.D("b", bson.D("c", bson.A(1, "two", 3.0)))),
	)
	want, err := bson.Unmarshal(bson.Marshal(sent))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("db", "types", sent); err != nil {
		t.Fatal(err)
	}
	docs, err := c.Find("db", "types", nil, nil, 0)
	if err != nil || len(docs) != 1 {
		t.Fatalf("Find: %d docs, %v", len(docs), err)
	}
	if !reflect.DeepEqual(docs[0], want) {
		t.Fatalf("over the socket: %v\nbinary codec:    %v", docs[0], want)
	}
	// DeepEqual tells int64(1) from 1.0, which bson's numeric equality
	// does not; spell the two that matter out all the same.
	if v, _ := docs[0].Get("int"); v != int64(1) {
		t.Errorf("int arrived as %T", v)
	}
	if v, _ := docs[0].Get("float"); v != float64(1) {
		t.Errorf("float arrived as %T", v)
	}
	if v, _ := docs[0].Get("when"); v != time.Date(2015, 11, 9, 12, 0, 0, 123000000, time.UTC) {
		t.Errorf("date arrived as %v, want it cut to the millisecond", v)
	}
}

// rawConn opens a second kind of client: a socket the test writes bytes to.
func rawConn(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	srv.mu.Lock()
	addr := srv.listener.Addr().String()
	srv.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// deepFrame is size bytes of nothing but nested documents, seven bytes a
// level.
func deepFrame(size int) []byte {
	levels := size / 7
	frame := make([]byte, 0, levels*7)
	for i := levels; i > 1; i-- {
		frame = binary.LittleEndian.AppendUint32(frame, uint32(7*i-2))
		frame = append(frame, 0x03, 0x00)
	}
	frame = append(frame, 5, 0, 0, 0, 0)
	for i := 1; i < levels; i++ {
		frame = append(frame, 0x00)
	}
	return frame
}

// TestMalformedFrameClosesOnlyItsConnection feeds connections of their own
// each kind of input that is not a request frame and checks that the server
// closes that connection, counts the event, and goes on serving another
// connection's finds before and after; and that Close still returns with a
// half-written frame outstanding.
func TestMalformedFrameClosesOnlyItsConnection(t *testing.T) {
	srv, good := startServer(t)
	if err := good.Insert("db", "c", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}
	find := func(when string) {
		t.Helper()
		if docs, err := good.Find("db", "c", bson.D(bson.IDKey, 1), nil, 0); err != nil || len(docs) != 1 {
			t.Fatalf("find on the healthy connection %s: %d docs, %v", when, len(docs), err)
		}
	}
	refused := func() int64 { return srv.wm.errors["other"].Value() }

	valid := (&Request{Op: OpPing}).appendFrame(nil)
	notARequest := append([]byte(nil), valid...)
	notARequest[4] = 0x7f // an element tag the encoding does not have
	deep := deepFrame(1 << 20)
	if _, err := bson.Unmarshal(deep); err == nil {
		t.Fatal("bson.Unmarshal accepted a megabyte of nested documents")
	}
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"garbage", []byte("GET / HTTP/1.1\r\n\r\n")},
		{"length below a document's minimum", []byte{4, 0, 0, 0}},
		{"length above maxFrameSize", binary.LittleEndian.AppendUint32(nil, maxFrameSize+1)},
		{"body that is not a request", notARequest},
		{"a megabyte of nested documents", deep},
	} {
		find("before " + tc.name)
		before := refused()
		bad := rawConn(t, srv)
		if _, err := bad.Write(tc.bytes); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		// The server says why and hangs up. The reason is sent best effort —
		// a close with the peer's bytes unread may reset the connection under
		// it — so it is checked when it arrives; the hang-up always is.
		bad.SetReadDeadline(time.Now().Add(5 * time.Second))
		frame, err := readFrame(bad, nil)
		if err == nil {
			if resp, err := readResponse(frame); err != nil || resp.OK || !strings.Contains(resp.Error, "malformed frame") {
				t.Fatalf("%s: refusal = %+v, %v", tc.name, resp, err)
			}
			_, err = readFrame(bad, nil)
		}
		var timeout net.Error
		if err == nil || (errors.As(err, &timeout) && timeout.Timeout()) {
			t.Fatalf("%s: connection still open: %v", tc.name, err)
		}
		if got := refused() - before; got != 1 {
			t.Errorf("%s: %s{op=\"other\"} rose by %d, want 1", tc.name, metricRequestErrors, got)
		}
		find("after " + tc.name)
	}

	// A frame that stops halfway and whose sender hangs up.
	before := refused()
	half := rawConn(t, srv)
	if _, err := half.Write(valid[:len(valid)-3]); err != nil {
		t.Fatal(err)
	}
	half.(*net.TCPConn).CloseWrite()
	half.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(half); err != nil {
		t.Fatalf("half frame, then EOF: server did not close: %v", err)
	}
	if got := refused() - before; got != 1 {
		t.Errorf("half frame: %s{op=\"other\"} rose by %d, want 1", metricRequestErrors, got)
	}
	find("after a truncated frame")

	// A frame that stops halfway and whose sender stays: Close must not wait
	// for the rest.
	stalled := rawConn(t, srv)
	if _, err := stalled.Write(valid[:len(valid)-3]); err != nil {
		t.Fatal(err)
	}
	find("beside a stalled frame")
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close did not return with a half-written frame outstanding")
	}
}

// TestFrameSizeLimits checks both ends against maxFrameSize: the client
// refuses to send a request above it (and the connection stays usable), and
// a reader does not buffer what a length prefix announces before the bytes
// arrive.
func TestFrameSizeLimits(t *testing.T) {
	_, c := startServer(t)
	huge := bson.D("pad", strings.Repeat("x", maxFrameSize))
	if err := c.Insert("db", "c", huge); err == nil || !strings.Contains(err.Error(), "frame limit") {
		t.Fatalf("oversized request: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after the refused request: %v", err)
	}
	if c.buf != nil && cap(c.buf) > frameBufferKeep {
		t.Errorf("client kept a %d-byte buffer", cap(c.buf))
	}

	// A prefix announcing maxFrameSize followed by 10 bytes: the reader
	// fails on the missing rest having grown its buffer for what came.
	announced := binary.LittleEndian.AppendUint32(nil, maxFrameSize)
	buf, err := readFrame(bytes.NewReader(append(announced, make([]byte, 10)...)), nil)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v", err)
	}
	if cap(buf) > 8192 {
		t.Errorf("reader grew its buffer to %d bytes for a 14-byte input", cap(buf))
	}
}

// TestRepeatedFieldIsRefused pins what the codecs do with a frame that gives
// one of their fields twice, which no encoder of this package writes: it is
// refused, as a document with a repeated name is one level down. A name the
// codec does not know is skipped however often it comes.
func TestRepeatedFieldIsRefused(t *testing.T) {
	frame := func(fields ...string) []byte {
		buf, start := bson.BeginDoc(nil)
		for i := 0; i < len(fields); i += 2 {
			buf = bson.AppendString(buf, fields[i], fields[i+1])
		}
		return bson.EndDoc(buf, start)
	}
	if r, err := readRequest(frame("op", "find", "db", "a", "op", "drop")); err == nil || !strings.Contains(err.Error(), `"op" given twice`) {
		t.Errorf("request with op twice: %+v, %v", r, err)
	}
	if r, err := readResponse(frame("error", "a", "resumeToken", "t", "error", "b")); err == nil || !strings.Contains(err.Error(), `"error" given twice`) {
		t.Errorf("reply with error twice: %+v, %v", r, err)
	}
	if r, err := readRequest(frame("op", "ping", "comment", "a", "comment", "b")); err != nil || r.Op != OpPing {
		t.Errorf("request with an unknown field twice: %+v, %v", r, err)
	}
}

// TestResultLargerThanAFrameArrivesInBatches reads 60 MB of documents back
// through a 48 MB frame limit: a find and an aggregate that name no batch
// size get the documents that fit and a cursor over the rest, which the
// helpers drain; a cursor request whose first batch does not fit keeps the
// rest on its own cursor, ahead of what it had not yet produced. Every
// document arrives once and in order.
func TestResultLargerThanAFrameArrivesInBatches(t *testing.T) {
	srv, c := startServer(t)
	const total = 60
	pad := strings.Repeat("p", 1<<20)
	for base := 0; base < total; base += 20 {
		docs := make([]*bson.Doc, 20)
		for i := range docs {
			docs[i] = bson.D(bson.IDKey, base+i, "pad", pad)
		}
		if _, err := c.InsertMany("db", "big", docs); err != nil {
			t.Fatal(err)
		}
	}
	inOrder := func(what string, docs []*bson.Doc, err error) {
		t.Helper()
		if err != nil || len(docs) != total {
			t.Fatalf("%s: %d documents, %v", what, len(docs), err)
		}
		for i, d := range docs {
			if id, _ := d.Get(bson.IDKey); id != int64(i) {
				t.Fatalf("%s: document %d has _id %v", what, i, id)
			}
		}
	}
	docs, err := c.Find("db", "big", nil, bson.D(bson.IDKey, 1), 0)
	inOrder("Find", docs, err)
	docs, err = c.Aggregate("db", "big", []*bson.Doc{bson.D("$sort", bson.D(bson.IDKey, 1))})
	inOrder("Aggregate", docs, err)

	// The same find by hand: a first frame inside the limit, then getMores.
	resp, err := c.Do(&Request{Op: OpFind, DB: "db", Collection: "big", Sort: bson.D(bson.IDKey, 1)})
	if err != nil || resp.CursorID == 0 || len(resp.Docs) >= total || resp.N != int64(len(resp.Docs)) {
		t.Fatalf("find of %d MB: %d documents, n %d, cursor %d, %v", total, len(resp.Docs), resp.N, resp.CursorID, err)
	}
	if cap(c.buf) > maxFrameSize+(1<<20) {
		t.Errorf("the reply frame took a %d-byte buffer", cap(c.buf))
	}
	docs = resp.Docs
	for resp.CursorID != 0 {
		if resp, err = c.Do(&Request{Op: OpGetMore, DB: "db", CursorID: resp.CursorID}); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, resp.Docs...)
	}
	inOrder("find and getMore", docs, nil)

	// A cursor request: the batch asked for does not fit either.
	cur, err := c.FindCursor("db", "big", nil, bson.D(bson.IDKey, 1), 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.batch) >= 50 || cur.id == 0 {
		t.Fatalf("first batch of 50 MB-sized documents: %d arrived, cursor %d", len(cur.batch), cur.id)
	}
	docs, err = cur.All()
	inOrder("FindCursor", docs, err)
	if n := srv.OpenCursors(); n != 0 {
		t.Errorf("%d cursors left open", n)
	}
}

// TestPointFindRoundTripAllocates bounds what one indexed point find costs
// in allocations from Client.Do to the reply, client and server together
// (they share the process, so AllocsPerRun sees both). Measured: 31 — 14 in
// Handle and below, 7 to encode and decode the request, 10 the reply (34
// until mongod stopped keeping a profile entry, with its rendered plan line,
// per op; 35 until it stopped building a "db.coll" string per op for
// per-namespace metric families; 40 until a point find took its candidates
// from the tree's own posting list). The line-delimited JSON codec this
// replaced measured 298.
func TestPointFindRoundTripAllocates(t *testing.T) {
	_, c := startServer(t)
	if err := c.EnsureIndex("db", "items", bson.D("k", 1), true); err != nil {
		t.Fatal(err)
	}
	docs := make([]*bson.Doc, 1000)
	for i := range docs {
		docs[i] = bson.D(bson.IDKey, i, "k", i, "g", i%10, "v", 0, "pad", strings.Repeat("p", 48))
	}
	if _, err := c.InsertMany("db", "items", docs); err != nil {
		t.Fatal(err)
	}
	req := &Request{Op: OpFind, DB: "db", Collection: "items", Filter: bson.D("k", 700)}
	const ceiling = 60
	got := testing.AllocsPerRun(500, func() {
		resp, err := c.Do(req)
		if err != nil || len(resp.Docs) != 1 {
			t.Fatalf("find: %v, %v", resp, err)
		}
	})
	t.Logf("%.0f allocations a point find over the socket", got)
	if got > ceiling {
		t.Errorf("a point find over the socket allocates %.0f times, ceiling %d", got, ceiling)
	}
}
