// Command docstore-shell is a tiny interactive shell (and one-shot client)
// for a running docstored server, the counterpart of the mongo shell the
// thesis uses to run its JavaScript queries:
//
//	docstore-shell -addr 127.0.0.1:27017 -db Dataset_1GB \
//	    -eval '{"op":"find","coll":"store_sales","filter":{"ss_quantity":{"$gte":90}},"limit":2}'
//
// Without -eval it reads one JSON request per line from standard input. The
// "db" field may be omitted from requests when -db is given. Write requests
// accept a "j": true field (writeConcern {j: true}): the server then
// acknowledges only after the write's WAL record is fsynced. They also accept
// a full "writeConcern" document ({"w": 2, "wtimeout": 500} or
// {"w": "majority", "j": true}) against a docstored running with -replicas;
// an unsatisfied concern comes back as a writeConcernError inside the result
// document, with the count of members the write did reach. Find requests
// accept a "hint": "index_name" field forcing the named index; a hint that
// names no index fails the request instead of silently scanning. They also
// accept an "atVersion": N field — the atClusterTime analogue — pinning the
// query to the named committed collection version: run one query, read its
// snapshot version from the server's engine gauges or a getTraces span
// (storage.plan carries snapshotVersion), then pass it back so follow-up
// queries all describe that one committed state no matter how many writes
// land in between. Keep a cursor open at that version to anchor it against
// retention; a version the engine no longer tracks fails the request.
//
//	{"op":"find","coll":"store_sales","filter":{...},"atVersion":412}
//
// Against a sharded docstored (-shards N) the requests fan out through the
// in-process query router; two extra ops appear:
//
//	{"op":"shardCollection","coll":"store_sales","keys":{"ss_item_sk":1}}
//	{"op":"checkpoint"}
//
// shardCollection hash-partitions the collection across shards; checkpoint
// takes a cluster-consistent checkpoint (every shard captured under one
// simultaneous write hold — no restored shard is ever ahead of another).
// checkpoint works against a stand-alone durable server too.
//
// Change streams pass through as requests too: a watch opens a tailable
// cursor and getMore drains it, waiting up to maxTimeMS for new events —
//
//	{"op":"watch","coll":"store_sales","docs":[{"$match":{"operationType":"insert"}}]}
//	{"op":"getMore","cursorId":1,"maxTimeMS":5000}
//	{"op":"killCursors","cursorId":1}
//
// and "resumeAfter" resumes a watch from a previous response's resumeToken
// (every event's _id is its own token).
//
// {"op":"stats"} returns serverStatus including the MVCC engine gauges
// ("engine": live versions, oldest pin age, retained/COW/reclaimed bytes)
// and the "openCursors" list (cursor id, namespace, kind, idle ms) — enough
// to spot which abandoned cursor is retaining memory and killCursors it.
//
// When the server traces (docstored does by default; tune with
// -trace-sample/-trace-ring/-profile-slowms), the introspection ops need no
// "db" and return span trees — each document carries traceId, spanId, name,
// startUnixNano, durationUS, attrs and children:
//
//	{"op":"currentOp"}              in-flight operations, oldest first
//	{"op":"getTraces","limit":5}    completed traces, most recent first
//
// Both accept "opName" (root-span name prefix, e.g. "wire.insert") and
// "minDurationUS" filters, applied before the limit — so
// {"op":"getTraces","opName":"wire.insert","minDurationUS":5000,"limit":3}
// returns the three most recent retained inserts that took at least 5ms.
//
// A write's tree shows where its latency went — the mongos shard fan-out,
// the storage apply, the WAL group-commit wait ("wal.commitWait") and, for
// a replicated write, the oplog's ("replset.oplogCommitWait") and the
// replica quorum wait ("replset.quorumWait"), which overlap the first: the
// write waited for their union, not their sum. Slow operations
// (past -profile-slowms) are always retained regardless of the sample rate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"docstore/internal/bson"
	"docstore/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:27017", "docstored address")
	db := flag.String("db", "test", "default database for requests that omit one")
	eval := flag.String("eval", "", "run a single JSON request and exit")
	flag.Parse()

	client, err := wire.Dial(*addr, 5*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docstore-shell: %v\n", err)
		os.Exit(1)
	}
	defer client.Close()

	runLine := func(line string) error {
		line = strings.TrimSpace(line)
		if line == "" {
			return nil
		}
		doc, err := bson.FromJSONString(line)
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		if !doc.Has("db") {
			doc.Set("db", *db)
		}
		resp, err := execute(client, doc)
		if err != nil {
			return err
		}
		for _, d := range resp.Docs {
			fmt.Println(d.ToJSON())
		}
		if resp.Result != nil {
			fmt.Println(resp.Result.ToJSON())
		}
		switch {
		case resp.CursorID != 0 && resp.ResumeToken != "":
			fmt.Printf("ok (n=%d, cursorId=%d, resumeToken=%s)\n", resp.N, resp.CursorID, resp.ResumeToken)
		case resp.CursorID != 0:
			fmt.Printf("ok (n=%d, cursorId=%d)\n", resp.N, resp.CursorID)
		default:
			fmt.Printf("ok (n=%d)\n", resp.N)
		}
		return nil
	}

	if *eval != "" {
		if err := runLine(*eval); err != nil {
			fmt.Fprintf(os.Stderr, "docstore-shell: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("connected to %s (db %s); one JSON request per line, Ctrl-D to exit\n", *addr, *db)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for scanner.Scan() {
		if err := runLine(scanner.Text()); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

// execute converts the free-form request document into a typed request by
// routing it through the wire codec (the document already uses the protocol's
// field names).
func execute(client *wire.Client, doc *bson.Doc) (*wire.Response, error) {
	req := &wire.Request{}
	if v, ok := doc.Get("op"); ok {
		req.Op, _ = v.(string)
	}
	if v, ok := doc.Get("db"); ok {
		req.DB, _ = v.(string)
	}
	if v, ok := doc.Get("coll"); ok {
		req.Collection, _ = v.(string)
	}
	if v, ok := doc.Get("doc"); ok {
		req.Doc, _ = v.(*bson.Doc)
	}
	if v, ok := doc.Get("filter"); ok {
		req.Filter, _ = v.(*bson.Doc)
	}
	if v, ok := doc.Get("update"); ok {
		req.Update, _ = v.(*bson.Doc)
	}
	if v, ok := doc.Get("sort"); ok {
		req.Sort, _ = v.(*bson.Doc)
	}
	if v, ok := doc.Get("projection"); ok {
		req.Projection, _ = v.(*bson.Doc)
	}
	if v, ok := doc.Get("keys"); ok {
		req.Keys, _ = v.(*bson.Doc)
	}
	if v, ok := doc.Get("hint"); ok {
		req.Hint = wire.HintString(v)
	}
	if v, ok := doc.Get("docs"); ok {
		if arr, isArr := v.([]any); isArr {
			for _, e := range arr {
				if d, isDoc := e.(*bson.Doc); isDoc {
					req.Docs = append(req.Docs, d)
				}
			}
		}
	}
	if v, ok := doc.Get("limit"); ok {
		if n, isNum := bson.AsInt(v); isNum {
			req.Limit = int(n)
		}
	}
	if v, ok := doc.Get("skip"); ok {
		if n, isNum := bson.AsInt(v); isNum {
			req.Skip = int(n)
		}
	}
	if v, ok := doc.Get("atVersion"); ok {
		if n, isNum := bson.AsInt(v); isNum {
			req.AtVersion = n
		}
	}
	if v, ok := doc.Get("batchSize"); ok {
		if n, isNum := bson.AsInt(v); isNum {
			req.BatchSize = int(n)
		}
	}
	if v, ok := doc.Get("cursorId"); ok {
		if n, isNum := bson.AsInt(v); isNum {
			req.CursorID = n
		}
	}
	if v, ok := doc.Get("resumeAfter"); ok {
		req.ResumeAfter, _ = v.(string)
	}
	if v, ok := doc.Get("opName"); ok {
		req.OpName, _ = v.(string)
	}
	if v, ok := doc.Get("minDurationUS"); ok {
		if n, isNum := bson.AsInt(v); isNum {
			req.MinDurationUS = n
		}
	}
	if v, ok := doc.Get("maxTimeMS"); ok {
		if n, isNum := bson.AsInt(v); isNum {
			req.MaxTimeMS = int(n)
		}
	}
	req.Multi = bson.Truthy(doc.GetOr("multi", false))
	req.Upsert = bson.Truthy(doc.GetOr("upsert", false))
	req.Unique = bson.Truthy(doc.GetOr("unique", false))
	req.Ordered = bson.Truthy(doc.GetOr("ordered", false))
	req.Journaled = bson.Truthy(doc.GetOr("j", false))
	if v, ok := doc.Get("writeConcern"); ok {
		// Pass the document through untouched: the server owns validation and
		// a malformed concern must fail there, not be silently dropped here.
		if wcDoc, isDoc := v.(*bson.Doc); isDoc {
			req.WriteConcern = wcDoc
		} else {
			return nil, fmt.Errorf("writeConcern must be a document, got %T", v)
		}
	}
	return client.Do(req)
}
