// Package docstore is a from-scratch Go reproduction of "Performance
// Evaluation of Analytical Queries on a Stand-alone and Sharded Document
// Store" (Raghavendra, 2015 / EDBT 2017): a MongoDB-like document store with
// secondary indexes, an aggregation pipeline and hash/range sharding; a
// TPC-DS data generator; the thesis' data migration, denormalization and
// query translation algorithms; and a benchmark harness that regenerates
// every table and figure of the evaluation.
//
// The implementation lives under internal/ (the sections below are the
// system inventory, one per mechanism); cmd/ holds the executables and
// examples/ holds runnable walkthroughs of the public API surface.
//
// # Streaming cursor execution
//
// Every query layer streams results in cursor batches instead of
// materializing full result sets, so peak memory for a large scan is
// O(batch) rather than O(result):
//
//   - storage.Collection.FindCursor returns a storage.Cursor
//     (HasNext/Next/TryNext/NextBatch/All/Close) backed by an incremental
//     collection or index scan over one pinned snapshot; batches are
//     filled without taking any lock (see "Concurrency & isolation"
//     below). The batch size is set per query with
//     storage.FindOptions.BatchSize: 0 uses storage.DefaultBatchSize,
//     negative values disable batching and produce the whole result in one
//     batch (what the slice-returning Find does internally).
//   - aggregate pipelines execute over aggregate.Iterator via
//     Pipeline.RunIter: $match, $project, $addFields, $unwind, $limit and
//     $skip stream document-at-a-time ($limit stops the upstream scan
//     early), $group accumulates its buckets incrementally, and only
//     blocking stages ($sort, $lookup, $out, $count) materialize.
//   - mongod.Database.FindCursor and AggregateCursor expose both, with a
//     leading $match pushed down to the storage engine's indexes.
//   - mongos.Cursor is the router's one merge: a stream per targeted
//     shard — a find's shard cursor, or the shard prefix of a pipeline —
//     merged k-way when the query sorts and concatenated in target order
//     when it does not, pulled lazily or pumped by one prefetching
//     goroutine per shard when Options.Parallel is set. Router.FindCursor
//     returns it; Router.AggregateCursor feeds it into the router-side
//     merge pipeline. A shard stream's error ends the merge as
//     "mongos: shard <name>: …".
//   - driver.Store is the deployment-independent interface (cursors
//     included), implemented by both the stand-alone and the sharded
//     adapters.
//   - the wire protocol (internal/wire) frames a request and its reply as
//     one binary document each, in the encoding of the log and the
//     snapshots (internal/bson): the document's own int32 length is the
//     frame header, a reader checks it against maxFrameSize (48 MB) before
//     buffering anything, and both codecs append to and read from the
//     frame directly, reply documents straight from the stored ones. The
//     decoder descends at most bson.MaxDepth = 100 levels, and the storage
//     engine refuses to log or store a document deeper than
//     bson.MaxDocumentDepth = 92 (storage.ErrDocumentTooDeep), which is
//     what keeps a log record, a snapshot and a reply decodable. A length
//     out of bounds, a frame cut short or bytes that do not decode close
//     the one connection that sent them; a reply carries the documents
//     that fit its frame and leaves the rest on a cursor. Extended JSON is
//     spoken only by docstore-shell, at its standard input and output.
//     The protocol carries cursor batching through batchSize/cursorId:
//     a find or aggregate with batchSize > 0 returns one batch plus a
//     cursor id, getMore pages through the rest, killCursors releases a
//     half-consumed cursor, and wire.Client.FindCursor/AggregateCursor wrap
//     the exchange in a client-side cursor. Abandoned server-side cursors
//     are reaped after an idle timeout (wire.DefaultCursorTimeout, the
//     docstored -cursor-timeout flag).
//
// The slice APIs (Find, Aggregate, Router.Find, ...) are thin wrappers that
// drain these cursors, so existing callers and benchmarks are unchanged.
//
// # Write path
//
// The write path mirrors the cursor engine's layering with a batched
// bulk-write engine, so fresh-ingest throughput scales with batch size the
// way read throughput scales with cursor batches:
//
//   - storage.Collection.BulkWrite executes a mixed batch of inserts,
//     updates and deletes (storage.WriteOp) under a single write-lock
//     acquisition with per-op error attribution (storage.BulkError) and
//     amortized maintenance: matchers compile before the lock, the record
//     array grows once for all inserts, and tombstone compaction is
//     considered once per batch. Ordered mode stops at the first failure;
//     unordered mode attempts every op.
//   - mongod.Database.BulkWrite times each batch as one operation, from
//     before its apply to the end of its journal wait. Its op label in
//     docstore_mongod_ops_total and docstore_mongod_op_duration_seconds is
//     the op's kind for a one-op batch — "insert", "update", "delete",
//     whatever entry point or write concern produced it — and "bulkWrite"
//     for any other.
//   - both are an apply followed by a wait: BulkApply journals, applies and
//     publishes the batch under the collection lock and returns a pending
//     commit; BulkWrite then waits on it. A caller that orders the batch
//     under a lock of its own (replset) calls BulkApply inside it and
//     waits outside, so its lock never covers an fsync.
//   - mongos.Router.BulkWrite partitions a bulk by target shard through the
//     chunk map and dispatches one sub-batch per shard — one round-trip per
//     shard instead of one per document — merging per-shard results with
//     original-index attribution. Unordered sub-batches fan out in parallel
//     goroutines; ordered batches dispatch maximal contiguous same-shard
//     runs sequentially, as the real mongos does. In an unordered batch a
//     broadcast multi-update (no upsert) or multi-delete joins the
//     sub-batch of every shard its filter spans, so a chunk of them costs
//     one call per shard (and one that fails on a shard is still applied
//     on the others); a non-multi op, which must stop at the first shard
//     that matches, visits its shards in order, one one-op sub-batch each
//     (the router's one multi-shard visit). An upsert whose filter does not
//     resolve to one shard is refused with an error naming the shard key.
//   - bulk writes are part of the one driver.Store interface, implemented
//     by both adapters.
//   - there is one write path, from the wire to the shard. Every scalar
//     entry point — Insert/Update/Delete on storage.Collection,
//     mongod.Database, replset.ReplicaSet and mongos.Router, and
//     UpdateOne/UpdateMany/DeleteID — is a one-op ordered BulkWrite at its
//     own layer, and the wire server turns each of its five write ops into
//     a []storage.WriteOp and hands it to one function (wire.Server's
//     execBatch), which calls the BulkWrite of its driver.Deployment's
//     Store: the router's, the replica set's or the server's own; each of
//     those ends in storage.Collection.BulkApply. So
//     routing, COW accounting, journaling, write-concern threading,
//     op timing and tracing each happen in one place: a plain insert and a
//     {j: true} insert produce the same span tree, "mongod.bulkWrite" over
//     "storage.bulkWrite" and "wal.commitWait". Reads, counts, aggregates
//     and index and collection management reach the deployment through
//     the same driver.Store, asked for by data ops only, so a stats,
//     listCollections or checkpoint request creates no database.
//   - the wire protocol's bulkWrite op carries the batch ("docs", one op
//     document each), the ordered flag and a result document with counters,
//     aligned insertedIds and the writeErrors array; wire.Client.BulkWrite
//     (with BulkInsertOp/BulkUpdateOp/BulkDeleteOp builders) wraps the
//     exchange, and docstore-shell passes "ordered" through and prints the
//     result document.
//   - an update costs what it writes. query.ApplyUpdate reports the
//     top-level fields it wrote (query.Written; a replacement writes them
//     all). The new stored size is the old one less those fields' old
//     elements plus their new ones, only the new values are checked for
//     depth (query.Written.Resize), and a document the op embeds into
//     every row it matches is sized once per op (query.SizeMemo); inserts,
//     upserts and replacements are sized in full. Only the indexes whose
//     key paths start at a written field (index.Index.MayChange) are
//     maintained, so a $inc of an unindexed counter touches no index, and
//     a row a Figure 4.7 op moves off its foreign key leaves the head of
//     that key's posting list, which the era's own list drops by a reslice
//     (positions are visited in ascending order). On analytic_denorm
//     denorm.us_per_doc fell from 4.2 to 2.5 us (medians of three traced
//     runs a side).
//
// InsertMany at every layer is a thin wrapper over this path, so the
// migration and denormalization loaders batch for free; benchmark/ measures
// the batched load as migrate.us_per_doc and each workload's setup_s.
// ReplaceContents, which $out uses, is the one batch with a prologue: it
// checks every row (depth, size, array _id, duplicate _id against an _id_
// index it builds in the same pass) before it touches the target, so a
// refused result leaves the target and its journal as they were; then, under
// one lock acquisition, it journals one replace record (the wipe and the new
// documents together: recovery replays both or neither, and a journal that
// refuses it leaves the target untouched), wipes the collection and installs
// the new records and that _id_, published as one version and acknowledged
// by one durability wait — a reader of the target sees the old result or the
// new one, never the empty collection between them, and two $outs to one
// target leave one of the two results, whole. A change stream sees the
// record as a drop and then one insert per document. Logs written before the
// replace record existed hold a wipe record and then a batch record per
// $out, and still replay so.
//
// An update maintains only the indexes whose keys it changed: an updated
// document keeps its record position, which is what its index entries
// carry, so index.Index.Replace extracts the document's keys before and
// after and leaves the tree alone when they are equal — a $set of one field
// of a document with ten indexed fields descends (and, in a copy-on-write
// era, path-copies) one tree, not ten. The trees move before the document is
// installed: an update a unique index refuses leaves the stored document and
// every index as they were. Deletes plan like updates and finds do — a
// delete by _id or by an indexed range costs what it removes, not the
// collection — and visit their candidates in record order, so a multi: false
// delete removes the document a collection scan would reach first and a
// replay removes the same one.
//
// # Set-oriented embedding
//
// Figure 4.7 of the thesis embeds a dimension into a fact collection by
// loading every dimension document into a HashMap and sending one
// multi-update {fk: pk} -> {$set: {fk: document}} per entry. Through a
// router that is one hop per dimension row, nearly all of them matching
// nothing: the normalized queries of Experiment 1 spent 2527 of a pass's
// 2547 store calls there. denorm.EmbedDocuments runs the same join as a
// hash join driven from the other side:
//
//  1. one aggregate ({$group: {_id: "$fk"}}, dotted paths included) asks
//     the target collection which keys it references;
//  2. one find ({pk: {$in: keys}}) fetches only those dimension documents;
//  3. the figure's updates, unchanged, ship as unordered bulk writes of
//     1000, which the router groups per shard as described above.
//
// The end state is the figure's: an update for a key no target document
// holds would have matched nothing, so dropping it changes nothing; and
// once a document's fk is replaced by a document no other update's
// {fk: pk} filter matches it, so every document is written at most once and
// the order of the updates — sequential in the figure, per-shard parallel
// here — cannot matter. The modified count is the same sum. What changes is
// the cost model: denormalizing a sharded fact collection (Experiment 6)
// takes one hop per shard per chunk, and translate.Run (Figure 4.8, steps
// unchanged) makes O(filters + embeddings) store calls instead of
// O(dimension rows). It also waits once per dependency, not once per call:
// a plan is compiled into one list of calls, each naming the earlier calls
// it reads, and translate.Exec starts each once those have returned. The
// dimension finds go out together, the semi-join is one server-side
// aggregate ending in $out, so the client never sends the fact subset back,
// and each embedding's find goes out after the semi-join, a dotted one's
// after the find of the one it reaches into, and its bulk write after its
// find. Step 1 of the embedding is not a call there: the semi-join returned
// the documents whose keys it asks for, and denorm.ReferencedKeys runs the
// same $group over them in process (a dotted key under an earlier
// embedding's adds the remainder of its path over that embedding's fetched
// dimension documents, a superset whose extra keys match nothing). Its
// critical path, which Exec reports, is 1 + 1 + (embedding depth + 1) + 1
// calls, where it was filters + 2 + 3 × embeddings + 1. Query 50's
// normalized run is another list of calls for the same executor: it takes
// its store keys from the joined documents it built the same way and reads
// the stores while it writes them; denorm.EmbedReturnsIntoSales ships its
// updates through the same bulk helper. The per-key loop survives in
// internal/denorm's tests as the reference the set-oriented path is checked
// against on randomized data, stand-alone and sharded.
//
// # Compiled pipelines
//
// A filter, a sort, an index key specification and an aggregation pipeline
// are each compiled once and evaluated against many documents; nothing
// about them is interpreted per document. They share one primitive,
// bson.Path, a dotted field name split once.
//
// Two rules for reading a path exist, and a Path keeps them apart.
// Path.Get is the rule of aggregation expressions ("$a.b"), sorts, $unwind,
// $lookup and update operators: only documents are traversed, and an array
// in the middle of the path makes it missing. Path.Lookup is the rule of
// filters and index keys: an array in the middle fans out, so {"books.pages":
// 216} sees the pages of every element of books and a single-field index
// over such a path is multikey. Lookup returns its one value inline and
// allocates only when an array was actually crossed. Path.Set and
// Path.Delete are the writes; bson.Doc's GetPath, LookupPathAll, SetPath
// and DeletePath are one-shot wrappers that compile the path on the stack,
// for callers that resolve a path once (an update operator, a shard key).
// There is no other path walker.
//
// Each segment of a Path remembers the position at which it last found its
// field and tries that position first: fields[slot].Key == segment, then
// the linear search. Documents of one collection share a layout, so a
// lookup usually costs one key comparison, on one cache line of a field
// array that is cold, instead of a search through it (a denormalized fact
// has 24 fields and a query's $match examines hundreds of candidates the
// index could not rule out). The position is a hint and nothing else. It is
// believed only after the key at it compared equal, so a stale or wrong one
// — the document is shorter, the field moved, was deleted and added again,
// another goroutine just looked at a document laid out differently — costs
// the search it would have saved and is then overwritten. Nothing
// invalidates it, because nothing depends on it; it is an atomic int32
// because Matchers, Pipelines and index handles are shared between
// goroutines. Nothing was added to bson.Doc: no key map, no shape pointer,
// no per-document state at all.
//
// aggregate.Parse compiles every stage. An expression becomes a tree of
// closures: "$a.b" is a Path.Get; literals are normalized once; the
// operator, the number of its arguments and the shape of a $cond are
// resolved and checked; operators of one and two arguments and $cond
// evaluate theirs without building a slice; $and and $or stop at the
// argument that decides them. What is wrong with an expression whatever
// the documents hold — an unknown operator, $subtract with three
// arguments, a $cond without an else — is therefore an error from Parse,
// naming the stage by index, and a pipeline cannot succeed on an empty
// collection and fail on a full one; what depends on values ($divide by
// zero, $concat of a number) stays an error of the run. $add, $multiply,
// $subtract, $mod, $abs and $sum compute in int64 while every operand is
// one and promote to float64 on overflow, as the real server does. $group
// compiles its _id and its accumulators (each operator resolved to a pair
// of functions); the bucket key is appended to a buffer reused from row to
// row, in an encoding under which two values have the same bytes exactly
// when bson.Compare calls them equal — 1 and 1.0 are one group, as they are
// one value to $match and $sort — and probed as m[string(buf)], so a row
// that lands in an existing bucket allocates nothing; a compound _id is
// bucketed by its parts and built as a document for the first row only.
// $project and $addFields hold their output paths, inclusion flags and
// expressions, and decide at Parse whether the input's _id leads the
// output, so a row is built once, in order, in one document. A leading
// $match is compiled by Parse and handed to the scan as it is
// (Pipeline.LeadingMatch, storage.Collection.FindCursorCompiled).
//
// The Appendix B scripts run as compiled, with two corrections
// (internal/queries): a field reference carries its "$" prefix, without
// which it is a string literal, and Query 21's ratio is a $cond that yields
// null where the SQL CASE does, instead of dividing by zero.
//
// What is deliberately not cached: compiled pipelines and query plans. A
// pipeline is compiled per request — about 6 % of a denormalized query's
// CPU — because a cache keyed by the stage documents needs a size, an
// eviction rule and invalidation when indexes change, and no workload's
// trace asks for them yet.
//
// The interpreter the compile step replaced survives in
// internal/aggregate's tests as the specification: TestCompiledEquivalence
// checks value, error-or-not and field order against it on seeded random
// expressions and stages and on every pipeline the four queries run in
// both data models; bson's TestPathSlotIsOnlyAHint checks a Path against
// the linear walk over documents that disagree about positions.
//
// A pipeline can nest a result deeper than anything stored ($project and a
// $group key wrap). Results are held to bson.MaxDocumentDepth where they
// leave — a database's Aggregate, AggregateCursor and $out, and the
// router's merge — with storage.ErrDocumentTooDeep, so an aggregation
// cannot build a reply its client refuses to decode.
//
// # Plans
//
// Every find, every update and delete, an aggregation's leading $match and
// each shard's side of a routed query get their candidates from one place,
// storage's planEnv.plan (internal/storage/find.go), and it is the one place
// that knows which clauses of the filter an index has already answered.
//
//   - Posting lists. An index is a B-tree of items {key, positions}: under
//     each distinct key the record positions of the documents that hold it,
//     in entry order — the key's posting list. index.Index.Postings reads
//     the lists a constraint on the index's leading field admits (a Get per
//     point of an $eq/$in, a walk over the keys of a range, the range
//     [{p}, {p, MAX}] for a point on a compound index) and hands them back
//     as they are, the frozen tree's own slices, with their total length. No
//     entry is visited to do so and no callback runs: planning compares keys
//     and copies slice headers. A document whose leading field is an array
//     has one key per element, in a compound index as in a single-field one,
//     and the index is multikey from then on.
//   - The driving index and the order guarantee. The chooser is what it
//     was: the longest constrained prefix, points before ranges, then the
//     index with the most distinct keys, then the name. The candidates are
//     the driving index's postings in scan order (the points as the filter
//     lists them, a range in key order, a document under several scanned
//     keys once, where it first appears), so a find without a sort returns
//     its documents in the order it always did; whatever narrows them
//     afterwards only removes. A single point on a non-multikey index is
//     one list, and the cursor reads it in place: no candidate slice.
//   - Intersection. Every other non-multikey, non-hashed index whose
//     leading field the filter constrains is a second opinion on the
//     candidates: its postings are walked once to set a bit a position, and
//     the candidates without a bit are dropped before a document is
//     fetched. Cheapest list first, as long as the cost rule holds: at most
//     64 entries a surviving candidate (intersectMaxEntriesPerCandidate),
//     and at least 8 candidates left to narrow. Measured, an entry walked
//     costs 0.7 to 1.4 ns and a candidate examined ~140 ns (a cold 4.4 KB
//     denormalized document), so at the bound the walk still pays if it
//     removes a third to a half of them. Two costs besides the entries
//     come out of the same budget, each at its measured rate: reading the
//     lists, index.KeyCost = 16 entries a key passed (21 to 26 ns: under a
//     unique index a range is all keys), and zeroing the membership bits,
//     an entry per 512 positions (1.3 ns a cache line). The read of a second
//     index is itself held to the budget: it stops at the key that
//     overdraws what the driving index's candidates could repay, so a key
//     beside "every date since" costs a few dozen keys of the date index,
//     not a walk to its end — and those keys are counted in KeysExamined
//     though nothing was intersected. The planner cannot know the share a
//     list will remove beforehand; list lengths are all it reads. Query 7
//     examines 51
//     documents instead of 386 (education ∩ year ∩ gender), Query 21 175
//     instead of 1,250 (date ∩ price: every survivor matches), Query 46 538
//     instead of 915 (city ∩ year); Query 50 has one usable index and is
//     left alone.
//   - Covered clauses and the residual. A scan answers the filter's clauses
//     on its field exactly — document in the postings if and only if the
//     clauses hold — under the conditions tabled below, and then the cursor
//     checks its candidates against query.Matcher.Residual, the compiled
//     filter without those clauses; a filter the scans answer whole leaves
//     the nil matcher. Where any condition fails the scan is still a
//     superset and the clause stays.
//   - Constrained to no value. An empty $in, two different equalities, a
//     lower bound above the upper: query.Constraint.IsEmpty. An index that
//     holds one key a document answers it as an index scan that reads
//     nothing (IXSCAN, keys=0 examined=0) — the translation layer's $in over
//     a dimension find that matched no row used to cost every shard a scan
//     of its chunk. A multikey index must not: {a: 1} and {a: 2} both hold
//     for a: [1, 2]. For the same reason it reads one bound of a two-sided
//     range and does not read the intersection of two point sets.
//   - What a plan reports. storage.Plan names the driving index and the
//     ones intersected, and counts KeysExamined (index entries read, all
//     indexes) beside DocsExamined and ClausesCovered; Plan.String is
//     "IXSCAN a_1 ∩ b_1 on c keys=810 examined=30 returned=30 covered=2".
//     Explain (FindWithPlan), the mongod.find and storage.plan spans and
//     storage.Stats carry the same counts: documents examined cannot fall
//     without the index work that bought it showing.
//   - Deliberately absent. No plan cache (see above). No statistics beyond
//     the lengths of the lists read, and no adaptive constant. No
//     intersection under a hint: the hinted index is read and nothing else.
//     No intersection through a multikey or hashed index, no index union for
//     $or, no sort served from an index. No option: the cost rule is one
//     function, intersectBudget, over named constants beside their
//     measurements.
//
// What a scan answers exactly, clause by clause:
//
//	clauses on the field (top level or under $and)      answered exactly
//	{a: v}, {a: {$eq: v}}, {a: {$in: [...]}}, together  yes: non-null scalars
//	{a: {$gte: x, $lte: y}} ($gt/$lt alike, or split    yes: both bounds, scalars
//	over two clauses)                                   of one canonical type
//	{a: {$gte: x}}, {a: {$lt: y}}                       no: the matcher brackets a
//	                                                    bound to its type, the open
//	                                                    side of a scan does not
//	{a: {$gte: 3, $lte: "z"}}, two bounds of two types  no
//	on one side
//	{a: null}, null in an $in, null bounds              no: null matches a missing
//	                                                    field, [] indexes as null
//	an array or document operand                        no: whole-value comparison
//	a point set beside a bound                          no
//	$ne, $nin, $exists, $not, $regex, ... on any        no, and the operators it
//	clause naming the field                             sits beside stay as well
//	anything under $or, $nor, $not, $elemMatch          not looked at
//	through a multikey or hashed index                  no: an array meets each
//	                                                    condition with a different
//	                                                    element; a hash has no order
//
// The specification the plan is held to is the declarative form: the whole
// filter over a scan of the same pinned version. TestIndexChurnEquivalence
// draws conjunctive filters from a seeded generator after every step of its
// churn and runs each three ways — collection scan, plan with every
// candidate checked against the whole filter, plan with the residual — and
// query's TestResidualDropsOnlyExactClauses has one row for each line of
// the table above.
//
// # Concurrency & isolation
//
// The storage engine is a multi-version copy-on-write store: reads never
// block writes, writes never block reads, and every scan is a point-in-time
// snapshot of one committed state.
//
//   - Versions and snapshots: a collection's state lives in an immutable
//     version (records, counters, journal watermark, index definitions)
//     published through an atomic pointer. storage.Collection.Snapshot pins
//     the current version with one atomic load; the returned
//     storage.Snapshot serves Count/Docs/Scan/FindID/WriteData/LastLSN
//     lock-free and stays frozen no matter what commits afterwards. Release
//     (idempotent; Cursor.Close does it for you) drops the pin from the
//     engine gauges; what the snapshot retained is freed by Go's collector
//     once nothing references it, so a leaked snapshot costs memory until
//     it is unreachable, never correctness.
//   - Writer serialization: writers (Insert, Update, Delete, BulkWrite,
//     EnsureIndex, ReplaceContents...) serialize on one per-collection mutex, exactly
//     as before; the WAL append still happens under that mutex, so journal
//     order, replay determinism and change-stream ordering are untouched.
//     A batch mutates the writer's working state and publishes the new
//     version as its last step, so readers observe whole batches or
//     nothing — never a half-applied bulk.
//   - Copy-on-write: records live in fixed 256-record pages behind a
//     pointer spine, so a mutating batch copies only the pages it touches —
//     O(touched pages), not O(collection). Inserts append to slots beyond
//     every published length, which no reader accesses, so they copy
//     nothing. A stored document, and every document and array nested in
//     it, is never written again, so an update copies only what it writes:
//     a shallow copy of the document (a new field array over the same
//     values), a shallow copy of each nested document on the paths it sets
//     or unsets (bson.Path.Set, Path.Delete), and one deep copy of the
//     op's update document, whose values every document the op writes
//     then holds by reference — Figure 4.7's multi-update leaves all the
//     fact rows it matched sharing one embedded dimension document.
//     Everything else is shared with the pre-image, which pinned versions
//     keep reading. An {_id: x} filter plans through the _id_ index like any
//     indexed filter, making a single-document update one page copy plus
//     one tree descent (benchmark/: storage.update_us,
//     storage.cow_b_per_write) — an update cannot
//     change _id, so the _id_ tree itself is not copied. A single-document
//     insert copies no page but path-copies one root-to-leaf path of _id_
//     and of every other index (the node-copy protocol below); a batch
//     pays that once per touched node, which is why bulk loads, checkpoint
//     loads included, insert through BulkWrite. Compaction rewrites into
//     fresh pages. An open cursor is therefore isolated from inserts,
//     updates, deletes, compaction, index churn and even a $out's
//     replacement of the contents — the pre-MVCC anomaly where deletes
//     leaked into open cursors until an array rewrite froze them is gone,
//     and tests assert a cursor drained
//     across interleaved writes returns exactly the at-open document set
//     with at-open contents.
//   - Memory model: publishing is an atomic pointer store with release
//     semantics and pinning is an acquire load, so a reader that sees a
//     version sees every record and document written before its publish;
//     slots below a published length are never written again (copy-on-
//     write), appends target only memory outside every pinned version, and
//     published documents are immutable — hence readers need no locks and
//     the -race stress suite (readers vs BulkWrite / EnsureIndex backfill /
//     compaction / checkpoint streaming) stays quiet.
//   - Planning: entirely lock-free. Every published version owns a frozen
//     set of persistent index trees (see "MVCC memory management" for the
//     node-copy protocol), so index-backed queries pin a snapshot and plan
//     and scan against that version's trees with zero mutex acquisitions.
//     An index entry is a record position — (key, position), four bytes a
//     position, unboxed in a slice per key — the way a real store's index
//     points at a record id: an index hit is read straight out of the tree
//     into the plan's candidate list, with no _id to marshal, no map to
//     probe and no allocation per entry (benchmark/: index.lookup_ns times
//     a hit, storage.scan_us a range of them).
//     The positions in a version's frozen trees name records in that
//     version's own pages, so candidate lists are snapshot-consistent by
//     construction and EnsureIndex/DropIndex cannot disturb an open
//     index-backed cursor. _id has no mechanism of its own: every
//     collection is born with the unique index _id_ over it, kept in the
//     same set as the user-created ones (slot 0, so a duplicate _id is
//     what a doubly offending insert is refused for), maintained, frozen,
//     remapped and chosen by the same loops. {_id: x}, {_id: {$in: ...}},
//     an _id range and {_id: x, a: y} are index scans of _id_, FindID is a
//     point lookup in the pinned version's frozen tree, and _id is unique
//     by value as the matcher compares it (1 and 1.0 collide). _id_ is
//     implied rather than listed: index listings, Stats.IndexCount and
//     IndexSizeBytes, checkpoint manifests and the WAL name user-created
//     indexes only, EnsureIndex({_id: 1}) returns it, DropIndex refuses it
//     and an array _id is refused at insert. FindOptions.Hint naming no
//     index in the pinned version fails with storage.ErrUnknownIndex
//     through every layer instead of silently degrading to a collection
//     scan (a hint can therefore succeed at an old version after the index
//     is dropped from the current one).
//   - Surfacing: storage.Plan carries SnapshotVersion and Isolation
//     ("snapshot"), shown by explain (FindWithPlan) and a cursor's Plan
//     once it finishes its drain, and carried by the storage.plan span
//     (snapshotVersion). Wire
//     getMore batches of one cursor are mutually consistent; mongos
//     prefetch pumps scan per-shard snapshots while bulk writes keep
//     scattering; checkpoints stream pinned snapshots without stalling
//     writers; a cursor on a replica-set secondary reads one member
//     version while that member's applier keeps landing oplog entries
//     (replset's TestFindCursorPinsMemberSnapshot). benchmark/'s oltp_wire
//     workload runs index scans beside its writers (time2_ms);
//     storage.scan_us times one alone.
//
// # MVCC memory management
//
// Versions are cheap to publish but not free to keep; this section is how
// the engine bounds what old versions cost and how to see who is paying.
//
//   - Page size: 256 records per page (storage's pageSize). Small enough
//     that a point write duplicates ~one page of record headers plus the
//     one replaced document; large enough that the spine (one pointer per
//     page) stays thousands of times smaller than the record data it
//     indexes. Record positions are stable across page copies, updates
//     (the updated copy is installed in the same slot) and deletes (the
//     slot becomes a tombstone), so the positions index entries carry
//     survive all three; only compaction moves them (see the node-copy
//     protocol below).
//   - Document sharing: an update's copy shares every value it did not
//     write with the document it replaces (see "Concurrency & isolation"),
//     so a version pinned across an update retains the replaced document's
//     field array and the nested documents on the written paths, not a
//     deep copy of it; and documents one multi-update wrote share the
//     values of its update document (on analytic_denorm the heap after
//     set-up fell from 13.0 to 3.5 bytes per loaded byte,
//     storage.heap_b_per_user_b). Index maintenance compares the values at
//     each key path in the two documents before building keys; a shared
//     value compares equal by pointer, so an index the update did not
//     touch costs no allocation. The same rule holds across collections
//     and servers. A replica set logs the document its primary stored, not
//     a copy, and every member applies that one oplog record, so the
//     primary, the oplog and each secondary hold one *bson.Doc until an
//     update on a member installs that member's own shallow copy (on
//     ingest_replicated storage.heap_b_per_user_b fell from 13.0 to 7.9).
//     A $out target stores each result row that has an _id as the row
//     itself. The source documents a $match passes to it stay shared with
//     the collection they came from. $addFields, $unwind, $lookup and an
//     exclusion projection copy only a row's field array and the paths
//     they write. What is still copied is what a caller owns: update and
//     delete specs, which the oplog and change-stream events copy once, and
//     an insert the primary did not store. Nor is an array copied on its
//     way into a document: bson.Normalize returns a canonical value as it
//     is, an array included, and copies one only from the first element it
//     converts, so $push and $addToSet build their array once, each on a
//     copy clipped to the old array's length, since the spare room past a
//     shared array's end is not theirs to write.
//   - Pin tracking: Snapshot/Cursor pin the version they read (one atomic
//     load and a few atomic adds); Release/Close unpin. A pin is a count
//     for the gauges, not a guard: a superseded page, spine, document or
//     tree node stays alive exactly as long as some version that holds it
//     is reachable — from a snapshot, a cursor or the current pointer — and
//     Go's collector frees it after. The engine keeps no list of versions,
//     retired pages or free pages. The cost is an allocation per copy: a
//     point $inc on a 100k-document collection allocates ~9 KB (a 4 KB
//     page, a 3 KB spine, its own ~1 KB), which no end-to-end median of
//     the four benchmark workloads shows (TestPointUpdateAllocates pins the
//     count and bytes on a smaller collection).
//   - Node-copy protocol: index B-trees are persistent (path-copying).
//     Each writer batch opens a copy-on-write era stamped with its write
//     sequence; the first mutation of a node owned by an older era clones
//     it (O(log n) nodes per key, the untouched subtrees stay shared) and
//     the superseded nodes stay with the frozen trees of the versions that
//     hold them. The copies themselves are lazy at two levels:
//     a path copy duplicates only the node shell (struct plus child
//     pointers) and aliases the item array until items actually mutate,
//     and the tree uses narrow leaves under wide interior nodes, since
//     the leaf item array is what a single-document era duplicates while
//     interior width buys shallow trees nearly free. A node that fills at
//     the tree's right edge — where keys arriving in order (ObjectIDs,
//     counters, a backfill over surrogate keys) all land — splits there,
//     not in the middle, so the nodes behind the edge stay full. Publishing freezes
//     the batch's trees into the new version — frozen handles panic on
//     mutation, and nodes created by an era are unreachable from any
//     earlier frozen clone, which is the whole safety argument for
//     lock-free readers. Superseded nodes are freed exactly like
//     superseded pages: by Go's collector, once no reachable version holds
//     them. Compaction is the one event that renumbers
//     records, and it treats the trees as it treats the pages: the live
//     records are rewritten into fresh pages, and every writer tree is
//     rebuilt from fresh nodes with each entry's position mapped old to
//     new (index.Index.Remap — one walk, same shape, keys shared, no
//     comparisons; the mapping is monotone, so entry order survives).
//     Nothing reachable from a published version is touched: a version
//     pinned before the compaction keeps its old pages and its old frozen
//     trees, which still agree with each other in the old numbering.
//     TestIndexChurnEquivalence holds all of this to one rule — after any
//     random sequence of writes and compactions an index-served find
//     equals a collection scan, at the current version and at every
//     pinned one.
//   - Tombstones: a delete leaves a nil document in its slot (a record is
//     a document pointer and a 32-bit size, 16 bytes), dropping the
//     document at once; the slots themselves go only when tombstones are
//     the majority and the collection compacts. No page ever leaves the
//     spine, so readers need no check for one.
//   - Gauges: storage.EngineStats reports live versions (the current one
//     plus the superseded ones some snapshot pins), pinned snapshots, COW
//     bytes copied vs shared (their ratio is the paging win) and pages
//     copied. They aggregate through mongod.ServerStatus.Engine (also as
//     metrics gauges via Server.EngineGauges), and wire stats exposes the
//     "engine" subdocument plus an "openCursors" list (cursor id,
//     namespace, kind, idle ms) — so docstore-shell can show which cursor
//     is retaining memory: the long-idle cursor on the namespace whose
//     gauges report superseded live versions.
//     TestStuckCursorRetentionGauges drives exactly that diagnosis loop.
//     The tree-COW gauges (tree nodes/bytes copied, bytes shared) sit
//     beside the page gauges (TestIndexTreeRetentionGauges), and
//     TestSupersededPageReachability holds a superseded page reachable
//     while a snapshot pins it and unreachable once it is released.
//
// # Durability & recovery
//
// The storage engine is made crash-safe by a write-ahead log (internal/wal)
// that every write layer journals through before applying:
//
//   - WAL format: rotating segment files (wal-<firstLSN>.log, fsynced and
//     immutable once rotated) holding length-prefixed, CRC32C-checksummed
//     records. A record is a logical batch — the ops of one
//     storage.BulkWrite, a scalar write as a one-op batch, a collection
//     clear, a $out's replacement of a collection's contents, or a
//     collection/database drop — so replaying the log re-runs
//     the same deterministic batch code that ran the first time (insert _ids
//     are assigned before logging for exactly this reason).
//   - Sync policies (wal.SyncPolicy): "always" fsyncs once per acknowledged
//     write; "group" (the default) runs group commit — the first waiter
//     leads an fsync that covers every record appended before it, so
//     concurrent writers share disk flushes and acknowledged-write
//     throughput scales with concurrency (benchmark/: wal.fsync_p50_us is
//     one append and the fsync that covers it, wal.syncs_per_write the
//     fsyncs a write pays); "none" defers to rotation and
//     shutdown. The flush happens under the append lock but the fsync does
//     not, which is what lets the next batch fill while the disk works.
//   - writeConcern semantics: a write on a journaled collection is
//     acknowledged once its record is durable under the policy.
//     storage.BulkOptions.Journaled — surfaced as {j: true} ("j") on the
//     wire protocol's insert/insertMany/update/delete/bulkWrite and in
//     docstore-shell — escalates any policy to an fsync before
//     acknowledgement.
//   - Index durability: EnsureIndex and DropIndex are journaled like
//     writes (under the same collection lock, so replayed writes see the
//     same unique-key enforcement the original run did — an insert a
//     unique index rejected replays as rejected), and checkpoint manifests
//     carry each snapshot's index definitions so recovery rebuilds the
//     trees by backfilling. Record positions therefore never reach disk:
//     a recovered collection numbers its records afresh and its trees
//     point at the new numbers.
//   - Checkpoints (mongod.Server.Checkpoint, which is mongod.CheckpointAll
//     of one server) reuse the storage snapshot format and are a single
//     capture point: HoldAllWrites pauses every collection's writers for
//     one pin instant, a snapshot of every collection plus the WAL
//     position is pinned while nothing can commit, and the hold releases
//     before any disk I/O — so the capture
//     is a true cut (every record at or below the capture LSN is in some
//     captured snapshot), writers pause for microseconds, and recovery
//     restores every collection to exactly the same point before
//     replaying the tail. The cut is also what makes pruning exact: the
//     capture LSN alone is the prune cutoff, no min-over-watermarks
//     conservatism. Streaming to the checkpoint-<lsn> directory happens
//     from the pinned capture while writes flow again, and publication is
//     an atomic rename of a fsynced temp dir — a crash mid-stream leaves
//     the previous checkpoint intact, never a torn one. Older checkpoints
//     are removed once the new one is durable.
//   - Cluster checkpoints (mongos.Router.Checkpoint, wire op
//     "checkpoint", docstored -shards) are mongod.CheckpointAll of the
//     shard primaries: phase one holds writes on every shard
//     simultaneously and pins a capture on each, phase two streams each
//     shard from its pinned capture while writes flow. Because no
//     shard can commit during the holds, causally ordered writes are cut
//     consistently — no restored shard is ever ahead of another — and a
//     shard that dies mid-stream leaves the cluster checkpoint wholly at
//     the capture point or cleanly absent. Sharding metadata is in-memory;
//     a restored cluster re-issues its shardCollection commands.
//   - Recovery (mongod.Server.EnableDurability) loads the newest complete
//     checkpoint, truncates any torn tail — a partial or checksum-failing
//     record left by a crash mid-append — from the newest segment, and
//     replays every record newer than each collection's snapshot
//     watermark. Torn records anywhere else are reported as corruption,
//     never silently dropped. The log is decoded once: wal.Open finds the
//     tail from the frames alone (length, checksum, and the LSN at its
//     fixed offset), and wal.Replay decodes the records on a goroutine of
//     its own, a bounded queue ahead of the caller, so decoding and
//     applying run on two cores. Consecutive batch records of one
//     collection are a run: each is applied as it arrives, under the
//     collection's lock and without publishing
//     (storage.Collection.ReplayBatch), keeping its own ordered/unordered
//     and per-op-failure outcome, and the run is published once, when a
//     record that is not a batch, a record of another collection or the end
//     of the log ends it — never at a count. Nothing reads a recovering
//     server, so no version inside a run is observable, and a run copies no
//     page and no index path: everything it writes it created or copied
//     itself. The record that ended a run goes through
//     mongod.Server.Apply, after the run is published, so it sees every
//     record before it; recovery's own part is only the watermark guard
//     around it and the drop-database rule that spares collections a
//     checkpoint restored after a same-name recreate.
//   - replset shares the log format and its applier: oplog entries carry
//     wal.Records, and a member applies each through mongod.Server.Apply,
//     the one function that turns a record into server state. AttachWAL
//     makes the oplog durable, and LoadOplogFromWAL reloads it
//     on restart, after which each member's applier (StartReplication)
//     replays what the member lacks — all of it on a volatile secondary,
//     nothing on a primary that recovered from its own journal and was
//     marked with MarkApplied. A replicated durable server therefore keeps
//     two logs, the primary's journal and the oplog; a write appends to
//     both under the replica set's lock and waits for both fsyncs at once
//     after releasing it (see "Replication & write concern").
//   - docstored enables all of this with -data-dir, selects the policy
//     with -wal-sync, tunes the coalescing window and segment size with
//     -wal-group-interval / -wal-segment-mb, and checkpoints periodically
//     with -checkpoint-every (plus once at shutdown).
//
// Logging logical batches before applying them needs every id a replay
// would otherwise draw fixed in the record: an insert's missing _id is
// assigned, and an upsert's (WriteOp.UpsertID) drawn, before the batch is
// logged, so a replay inserts the documents the original run did. replset
// logs an upserted post-image as an insert, or, when a later op of the
// batch wrote that document, the upsert with the id it used. One caveat is
// inherent: one batch is one log record, bounded by wal.MaxRecordSize
// (64 MiB encoded), so a journaled bulk write beyond that is rejected whole
// with a durability error before anything applies — split such loads into
// smaller batches.
//
// # Change streams
//
// internal/changestream turns the durability layer into a live event
// backbone: watchers tail the committed write feed the way real deployments
// tail the oplog to drive caches, search indexes and reactive clients.
//
//   - Events and tokens: every journaled write fans out as ordered events
//     {_id: resumeToken, operationType, ns, documentKey, fullDocument /
//     updateDescription / filter}. A resume token encodes (LSN, op index)
//     as 24 hex characters; an event's _id is its own token, and resuming
//     from a token delivers events strictly after it. The stream mirrors
//     the journal — it reports logged write intents, so an op that failed
//     to apply (duplicate _id) still appears, exactly as it would tailing
//     the oplog — and a resumed stream replays WAL segments from disk
//     before switching to the live tail, so live and resumed sequences are
//     identical: exactly-once delivery across disconnects and full server
//     restarts.
//   - Ordering: the write path publishes each record after its apply,
//     outside the collection lock; a per-server sequencer
//     (changestream.Broker) delivers only up to the contiguous LSN
//     frontier, so every watcher observes strictly increasing (LSN, op)
//     order. While nobody watches, the write path skips event
//     materialization entirely (one atomic load).
//   - Flow control: each watcher owns a bounded buffer
//     (changestream.DefaultBufferSize, docstored -changestream-buffer). A
//     watcher that overflows it is invalidated with ErrSlowConsumer — the
//     write path never blocks on a watcher — and resumes from its last
//     token. A token whose history checkpoint pruning removed fails with
//     ErrTokenTooOld rather than resuming with a gap.
//   - Filtering: mongod.Server.Watch accepts $match pipeline stages
//     compiled by the query matcher and evaluated against the event
//     document on the publish path, so uninteresting events never enter a
//     watcher's buffer; only delivered events advance the resume token, so
//     filters and resume compose.
//   - Cluster-wide: mongos.Router.Watch opens one stream per shard and
//     merges them (one pump goroutine per shard, the FindCursor prefetch
//     pattern) into a single feed with a composite per-shard resume token.
//     Per-shard LSN order is preserved; cross-shard interleaving is
//     arbitrary — the strongest guarantee independent per-shard logs
//     admit.
//   - Surfaces: the wire "watch" op opens a tailable cursor whose getMore
//     waits up to maxTimeMS for events (awaitData) and never exhausts;
//     live change-stream cursors get an extended idle window
//     (wire.TailableCursorTimeoutMultiple — polling keeps them alive
//     forever, an abandoned one still ages out), and killCursors tears
//     the subscription down, even mid-getMore. wire.Client.Watch wraps
//     the exchange, driver.Store.Watch abstracts over both deployments
//     (and errors when a server under it is not durable) and serves the
//     wire op on every driver.Deployment docstored runs, and
//     docstore-shell passes watch/getMore/resumeAfter straight through.
//
// # Replication & write concern
//
// internal/replset replicates the primary's writes to secondaries through a
// replicated oplog, and the write concern decides how many members must have
// applied a write before it is acknowledged:
//
//   - Concern: storage.WriteConcern carries {w: 1|N|"majority", j: bool,
//     wtimeout: ms}, parsed by storage.ParseWriteConcern with strict
//     type-checking — a malformed or misspelled concern fails the request
//     rather than silently weakening to w: 1 (FuzzWriteConcernDecode pins
//     this down). It rides storage.BulkOptions through every write layer:
//     wire insert/insertMany/update/delete/bulkWrite accept a writeConcern
//     document, mongos fans it out per shard, and replset enforces it.
//   - Acknowledgement: under the replica set lock a write does only what
//     must be ordered — the primary journals and applies the batch
//     (mongod.Database.BulkApply), the batch is appended to the oplog, and
//     a quorum waiter keyed on the entry's LSN is registered, so an
//     election that truncates the entry finds and fails the waiter, never
//     leaving it stranded. The lock is then released with two commits
//     pending, and the write waits for the primary journal's fsync and the
//     oplog WAL's fsync at the same time while the appliers are already
//     advancing each member's watermark and waking waiters as the count
//     reaches w. A write therefore pays the longest of the three waits, not
//     their sum, and because no fsync runs under the lock, concurrent
//     writes join each log's group commit. {j: true} makes the
//     acknowledgement mean "fsynced in both logs and applied on w members".
//     A batch the primary's journal refuses is applied nowhere: it returns
//     the journal's error without entering the oplog.
//   - Failure: an unsatisfied concern returns storage.WriteConcernError with
//     the replicated-so-far count and a reason — "wtimeout" (the wait
//     expired), "quorum unreachable" (too many members down for w to ever be
//     reached), "rolled back" (an election truncated the entry), or "replica
//     set closed". The write itself may still exist on the primary: the
//     error reports unacknowledged, not undone, exactly like MongoDB's
//     writeConcernError.
//   - Elections: StepDown elects the most-caught-up live member and
//     truncates the oplog to its watermark. A majority-acknowledged entry
//     was applied by floor(n/2)+1 members, and any live majority contains at
//     least one of them, so the elected tip is at or past the entry — which
//     is why w: "majority" acknowledged writes survive any primary kill plus
//     re-election. A deposed primary carrying rolled-back entries rejoins
//     stale-epoched: it is wiped and rebuilt by full oplog replay. The
//     fault-injection suite (internal/replset fault_test.go,
//     failover_test.go) kills and restarts members mid-bulk-write and
//     mid-change-stream tail under -race and asserts no acknowledged write
//     is lost, none applies twice, and the surviving set equals the
//     acknowledged set at the storage, mongod and mongos layers.
//   - Deployment: docstored -replicas N runs an in-process replica set with
//     the durable server as primary; -write-concern sets the default for
//     writes that carry none ("majority", "2+j", ...). docstored builds a
//     stand-alone server, a replica set or a router over shards with one
//     constructor, driver.Open, as one driver.Deployment that wire.Serve
//     serves and whose Close keeps the shutdown order: the set, its oplog's
//     WAL, a last checkpoint, the servers' WALs. On a durable server the
//     oplog has its own WAL under <data-dir>/oplog, reloaded by Open on
//     restart. benchmark/'s ingest_replicated workload measures majority+j write
//     latency against such a deployment, and replset.ack_wait_us the
//     quorum wait alone.
//
// # Observability
//
// internal/trace and internal/metrics make every request's cost visible:
// span trees answer "where did THIS operation spend its time", histograms
// answer "what does this operation usually cost", and docstored serves both
// live.
//
//   - Span model: the wire handler roots one span per request
//     ("wire.<op>"); each layer attaches children as the request descends —
//     "mongos.shard" (per-shard fan-out, shard name attr),
//     "mongod.bulkWrite"/"mongod.find" (db/collection attrs),
//     "storage.bulkWrite" + "storage.apply" (ops, COW bytes copied, LSN),
//     "storage.plan" (chosen and intersected indexes, keys examined, clauses
//     covered, snapshot version), "wal.commitWait"
//     (the journal's group-commit fsync wait, beside "storage.bulkWrite"
//     under "mongod.bulkWrite", which stays open until the write is
//     acknowledged), and "replset.oplogCommitWait" / "replset.quorumWait"
//     (w/need attrs) for replicated writes. In a replicated write's trace
//     "wal.commitWait" overlaps the two replset waits — the primary
//     journal's fsync is in flight together with the oplog's, and
//     "replset.quorumWait" covers only what the secondaries, applying since
//     the append, still owed once the oplog was durable — so the write's
//     durability time is the union of the three spans, not their sum. The span
//     rides the existing storage.BulkOptions/FindOptions structs, so no
//     call signature changed; a nil tracer (or span) makes every
//     instrumentation call a no-op, which is why disabled tracing is free.
//   - Sampling: trace.Options.SampleRate decides at root creation (one
//     atomic splitmix64 step) whether a trace is retained; any trace whose
//     root duration reaches SlowThreshold is retained regardless — tail
//     retention, so slow outliers are always captured even at 1% sampling.
//     Completed traces live in a bounded ring (RingSize, oldest evicted);
//     every in-flight request is tracked regardless of sampling.
//   - Querying: the wire ops {"op": "currentOp"} (in-flight span trees,
//     oldest first) and {"op": "getTraces"} (completed trees, most recent
//     first, "limit" caps) render the trees as documents: traceId, spanId,
//     name, startUnixNano, durationUS, attrs, children. Introspection
//     requests are themselves never traced, so currentOp does not list
//     itself and reading the ring does not churn it.
//     wire.Client.CurrentOp/Traces and docstore-shell drive them.
//   - Metrics: internal/metrics provides lock-free log-bucketed latency
//     histograms (4 sub-buckets per power-of-two octave, ~12.5% bucket
//     error) and monotonic counters in a registry that
//     renders Prometheus text exposition. The mongod layer records every
//     operation once, in docstore_mongod_ops_total{op} and
//     docstore_mongod_op_duration_seconds{op}: that is the per-op record,
//     and a slow operation's record is its trace, force-retained at
//     -profile-slowms. The wire layer records
//     docstore_wire_requests_total{op}, docstore_wire_request_errors_total
//     {op} and docstore_wire_request_duration_seconds{op}, and the MVCC
//     engine gauges plus tracer activity export as docstore_engine_* and
//     docstore_trace_* gauges. Label values and HELP text are escaped per
//     the Prometheus text format (\n, \", \\).
//   - Filtered introspection: currentOp and getTraces accept "opName" (root
//     span name prefix) and "minDurationUS" filters, applied over the whole
//     ring before "limit" — "the five slowest inserts" does not depend on
//     what else sits at the head of the ring.
//   - Cluster health: serverStatus and /metrics surface replication lag per
//     member (docstore_replset_member_{lag,applied,apply_age_ns}, labeled
//     {member, set}; the serverStatus "repl" section carries the same as
//     member documents, aggregated across shards behind a mongos), WAL fsync
//     latency and group-commit batch-size histograms
//     (docstore_wal_fsync_duration_seconds, from the WAL's own histograms
//     attached to the registry — rotation/shutdown fsyncs excluded) and per
//     watcher change-stream buffer depth (serverStatus
//     changeStreams.watcherDepths and docstore_changestream_* gauges).
//   - Endpoint: docstored -metrics-addr serves /metrics (both registries
//     merged, always the classic text format) and net/http/pprof's
//     /debug/pprof on one listener; -trace-sample, -trace-ring and
//     -profile-slowms are the tracer's only flags (-profile-slowms 0
//     disables force retention).
package docstore
