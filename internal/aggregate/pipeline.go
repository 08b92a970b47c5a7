package aggregate

import (
	"fmt"

	"docstore/internal/bson"
	"docstore/internal/query"
)

// Env gives pipeline stages access to other collections: $lookup reads a
// foreign collection and $out writes the final result collection. A nil Env
// is valid for pipelines that use neither.
type Env interface {
	// ReadCollection returns every document of the named collection.
	ReadCollection(name string) ([]*bson.Doc, error)
	// WriteCollection replaces the named collection with the given documents,
	// creating it when missing ($out semantics).
	WriteCollection(name string, docs []*bson.Doc) error
}

// Stage is a single pipeline stage.
type Stage interface {
	// Name returns the stage operator, e.g. "$match".
	Name() string
	// Apply transforms the document stream.
	Apply(docs []*bson.Doc, env Env) ([]*bson.Doc, error)
	// Local reports whether the stage operates on each document independently
	// (no cross-document state), which lets the query router push it down to
	// shards.
	Local() bool
}

// Pipeline is a parsed aggregation pipeline.
type Pipeline struct {
	stages []Stage
	out    string // $out target collection, "" when absent
}

// Parse compiles a pipeline definition — a list of single-stage documents —
// into a Pipeline: filters, field paths and expressions are compiled here,
// once, and what can be wrong with them whatever the documents hold — an
// unknown operator, a wrong argument count — is an error here, with the
// stage's index, not at the first document that reaches it. A Pipeline holds
// no per-run state and may be run from many goroutines at once.
func Parse(stageDocs []*bson.Doc) (*Pipeline, error) {
	p := &Pipeline{}
	for i, sd := range stageDocs {
		if sd.Len() != 1 {
			return nil, fmt.Errorf("aggregate: stage %d must contain exactly one operator, got %d", i, sd.Len())
		}
		f := sd.Fields()[0]
		stage, err := parseStage(f.Key, f.Value)
		if err != nil {
			return nil, fmt.Errorf("aggregate: stage %d (%s): %w", i, f.Key, err)
		}
		if i != len(stageDocs)-1 {
			if _, isOut := stage.(*outStage); isOut {
				return nil, fmt.Errorf("aggregate: $out must be the final stage")
			}
		}
		if o, isOut := stage.(*outStage); isOut {
			p.out = o.target
		}
		p.stages = append(p.stages, stage)
	}
	return p, nil
}

// MustParse is Parse but panics on error; for the statically known benchmark
// pipelines.
func MustParse(stageDocs []*bson.Doc) *Pipeline {
	p, err := Parse(stageDocs)
	if err != nil {
		panic(err)
	}
	return p
}

// Stages returns the parsed stage list.
func (p *Pipeline) Stages() []Stage { return p.stages }

// OutCollection returns the $out target collection name, or "".
func (p *Pipeline) OutCollection() string { return p.out }

// Run executes the pipeline over the input documents. It is a thin wrapper
// over the streaming execution: the input is served from a slice and the
// output drained back into one, so callers see the historical materializing
// behaviour while the stages in between stream.
func (p *Pipeline) Run(docs []*bson.Doc, env Env) ([]*bson.Doc, error) {
	return Drain(p.RunIter(FromSlice(docs), env))
}

// Split partitions the pipeline for sharded execution: the shard part is the
// longest prefix of per-document ("local") stages which each shard can run
// independently; the merge part is the remainder, run by the query router
// over the concatenated shard results. This mirrors how the thesis' sharded
// experiments aggregate partial results at the mongos (§4.3 observation ii).
func (p *Pipeline) Split() (shard, merge *Pipeline) {
	cut := 0
	for _, s := range p.stages {
		if !s.Local() {
			break
		}
		cut++
	}
	return &Pipeline{stages: p.stages[:cut]}, &Pipeline{stages: p.stages[cut:], out: p.out}
}

// Len returns the number of stages.
func (p *Pipeline) Len() int { return len(p.stages) }

// Tail returns the pipeline with its first n stages removed, preserving the
// $out target. It lets callers push a leading $match down into the storage
// engine without re-parsing the remaining stages.
func (p *Pipeline) Tail(n int) *Pipeline {
	if n <= 0 {
		return p
	}
	if n > len(p.stages) {
		n = len(p.stages)
	}
	return &Pipeline{stages: p.stages[n:], out: p.out}
}

// LeadingMatch returns the compiled filter of the first stage when that is a
// $match, and nil otherwise: what a caller that pushes the $match down into an
// index scan hands the scan, before running Tail(1) over its result.
func (p *Pipeline) LeadingMatch() *query.Matcher {
	if len(p.stages) > 0 {
		if m, ok := p.stages[0].(*matchStage); ok {
			return m.matcher
		}
	}
	return nil
}

// StageNames lists the stage operators in order.
func (p *Pipeline) StageNames() []string {
	names := make([]string, len(p.stages))
	for i, s := range p.stages {
		names[i] = s.Name()
	}
	return names
}

// SliceEnv is a trivial Env backed by an in-memory map of collections;
// useful in tests and for running merge pipelines on the query router where
// $out targets the router's result staging area.
type SliceEnv struct {
	Collections map[string][]*bson.Doc
}

// NewSliceEnv returns an empty SliceEnv.
func NewSliceEnv() *SliceEnv {
	return &SliceEnv{Collections: make(map[string][]*bson.Doc)}
}

// ReadCollection implements Env.
func (e *SliceEnv) ReadCollection(name string) ([]*bson.Doc, error) {
	docs, ok := e.Collections[name]
	if !ok {
		return nil, fmt.Errorf("aggregate: collection %q not found", name)
	}
	return docs, nil
}

// WriteCollection implements Env.
func (e *SliceEnv) WriteCollection(name string, docs []*bson.Doc) error {
	if e.Collections == nil {
		e.Collections = make(map[string][]*bson.Doc)
	}
	e.Collections[name] = docs
	return nil
}
