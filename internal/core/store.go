package core

import (
	"context"

	"silvervale/internal/corpus"
	"silvervale/internal/obs"
	"silvervale/internal/store"
	"silvervale/internal/ted"
)

// NewEngineStore returns an engine whose cache and index pipeline are
// backed by a persistent artifact store: TED misses read through to (and
// write into) the store's distance tier, and IndexCodebase warm-starts
// from the index tier. The engine does not own the store — the caller
// closes it. A nil store yields exactly NewEngineObs.
func NewEngineStore(workers int, cache *ted.Cache, rec *obs.Recorder, st *store.Store) *Engine {
	e := NewEngineObs(workers, cache, rec)
	if st != nil {
		e.astore = st
		st.SetRecorder(rec)
		cache.SetStore(st)
	}
	return e
}

// Store returns the engine's persistent artifact store (nil when absent).
func (e *Engine) Store() *store.Store { return e.astore }

// CodebaseContentHash addresses everything that determines an index built
// from cb under default Options: app, model, language, the unit roots in
// order, and every file's name, content, and system flag in sorted-name
// order. Two codebases hash equal exactly when default-option indexing
// would produce identical indexes, so a warm start can never serve an
// index for sources that changed.
func CodebaseContentHash(cb *corpus.Codebase) store.ContentHash {
	h := store.NewHasher()
	h.WriteString(cb.App)
	h.WriteString(string(cb.Model))
	h.WriteString(string(cb.Lang))
	h.WriteUint64(uint64(len(cb.Units)))
	for _, u := range cb.Units {
		h.WriteString(u.File)
		h.WriteString(u.Role)
	}
	names := cb.FileNames()
	h.WriteUint64(uint64(len(names)))
	for _, name := range names {
		h.WriteString(name)
		h.WriteString(cb.Files[name])
		if cb.System[name] {
			h.WriteUint64(1)
		} else {
			h.WriteUint64(0)
		}
	}
	return h.Sum()
}

// indexCodebaseStored is the warm-start path behind Engine.IndexCodebase:
// look the codebase up in the index tier, fall back to the pipeline
// through the unit memo, and persist fresh results. A store hit does no
// memo work. The key carries the options digest alongside the content
// hash, so every option set — the default run, coverage masks,
// KeepSystemHeaders ablations — warm-starts from its own records and can
// never be served an index built under different options.
func (e *Engine) indexCodebaseStored(ctx context.Context, cb *corpus.Codebase, opts Options) (*Index, error) {
	key := store.IndexKey{
		App:     cb.App,
		Model:   string(cb.Model),
		Content: CodebaseContentHash(cb),
		Opts:    opts.Digest(),
	}
	if db, ok := e.astore.LookupIndex(key); ok {
		idx, err := IndexFromDB(db)
		if err == nil {
			return idx, nil
		}
		// A record that decoded but does not reconstruct (e.g. an
		// unparsable tree) is as good as corrupt: recompute and rewrite.
	}
	idx, _, err := e.indexMemo(ctx, cb, nil, opts)
	if err != nil {
		// Cancellation included: a canceled index is never persisted.
		return nil, err
	}
	e.astore.PutIndex(key, idx.ToDB())
	return idx, nil
}
