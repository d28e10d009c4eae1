package profile

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"efes/internal/fanout"
	"efes/internal/faultinject"
	"efes/internal/relational"
)

// profileKey identifies one memoized column profile. The database is keyed
// by identity (pointer): profiles describe one concrete instance, and two
// scenarios never share instances unless they really are the same data.
// The type is part of the key because a column can be profiled under its
// declared type or viewed through a different (coercion target) type, and
// the two profiles differ.
type profileKey struct {
	db      *relational.Database
	table   string
	column  string
	typ     relational.Type
	coerced bool
}

// Mode names the profiling engine. There is one, the exact kernels, so
// ModeExact is the only value. The type remains because
// persist.ResultKey still takes a mode argument, and the benchmark module
// (perfbench) calls it with ModeExact; both go together once perfbench
// stops passing it.
type Mode int

// ModeExact is the exact profiling engine.
const ModeExact Mode = 0

// profileEntry is one cache slot. The ready channel implements in-flight
// deduplication: the first goroutine to request a key computes it while
// concurrent requesters block on ready instead of recomputing. The slot
// deliberately has no error field — errors are never memoized (a failed
// computation removes its entry and the waiters retry), so the struct
// carries the efes:cache-entry marker that makes efeslint's errcache
// analyzer reject any attempt to store an error in it.
//
//efes:cache-entry
type profileEntry struct {
	ready        chan struct{}
	stats        *ColumnStats
	incompatible int
	ok           bool // false: the computation failed and the entry was dropped
}

// Profiler memoizes column profiles and fans whole-database profiling
// out over a bounded worker pool. It is safe for concurrent use by
// multiple goroutines; a single Profiler can be shared across estimation
// modules, frameworks, and experiment workers so that every (database,
// table, column, type) combination is profiled exactly once per process,
// however many correspondences refer to it.
//
// Entries key the database by pointer identity and therefore keep the
// instance alive; call Forget when a database is dropped, or Reset to
// release a long-lived Profiler's memory between unrelated workloads.
//
//efes:daemon-lifetime
type Profiler struct {
	workers int
	store   Store

	mu      sync.Mutex
	entries map[profileKey]*profileEntry //efes:guardedby mu

	hits   atomic.Int64
	misses atomic.Int64
	// diskHits counts memo misses served from the durable store without
	// recomputing; computes counts profiles actually computed from the
	// instance. misses == diskHits + computes + failed computations.
	diskHits atomic.Int64
	computes atomic.Int64
}

// Store is a durable byte store for computed column profiles — the
// read-through hook behind the in-process memo, implemented by the
// content-addressed on-disk cache (internal/persist, Cache.Namespace).
// Both methods are best-effort: Get returning ok=false means "compute
// it", and Put is fire-and-forget. Implementations must be safe for
// concurrent use. Only successful computations are ever passed to Put —
// errors are never persisted, mirroring the in-memory memo's contract.
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte)
}

// SetStore installs the durable read-through store. Like the worker
// count it must be set before the Profiler is shared across goroutines.
// A profile that misses the in-process memo is then looked up in the
// store under a content address (table bytes, column, type) before being
// computed, and successful computations are written back — so a fresh
// process over the same data starts warm.
func (p *Profiler) SetStore(s Store) *Profiler {
	p.store = s
	return p
}

// statsFormatVersion tags the durable stats keys; bump it when the
// ColumnStats JSON shape or the profiling semantics change, so stale
// entries stop matching instead of being misread.
const statsFormatVersion = "efes-stats-v2"

// statsEnvelope is the durable form of one memoized profile.
type statsEnvelope struct {
	Stats        *ColumnStats `json:"stats"`
	Incompatible int          `json:"incompatible,omitempty"`
}

// diskKey derives the content address of a profile: a pure function of
// the table's serialized bytes, the column, and the (possibly coercion
// target) type — independent of process, pointer identity, and upload
// order, so any process over the same data shares entries. The trailing
// "exact" segment is the engine name that keys have always carried;
// keeping it keeps cache directories written by earlier versions warm
// (TestStatsKeysPinned).
func diskKey(key profileKey) (string, bool) {
	tableHash, err := key.db.ContentHash(key.table)
	if err != nil {
		return "", false
	}
	coerced := "raw"
	if key.coerced {
		coerced = "coerced"
	}
	sum := sha256.Sum256([]byte(statsFormatVersion + "\x00" + tableHash + "\x00" +
		key.table + "\x00" + key.column + "\x00" + key.typ.String() + "\x00" + coerced + "\x00exact"))
	return hex.EncodeToString(sum[:]), true
}

// loadStored fetches and validates a profile from the durable store.
// Any mismatch — unreadable JSON, wrong column identity — is treated as
// a miss: the profile is recomputed and the entry overwritten.
func (p *Profiler) loadStored(key profileKey, dkey string) (*ColumnStats, int, bool) {
	data, ok := p.store.Get(dkey)
	if !ok {
		return nil, 0, false
	}
	var env statsEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Stats == nil {
		return nil, 0, false
	}
	if env.Stats.Table != key.table || env.Stats.Column != key.column || env.Stats.Type != key.typ {
		return nil, 0, false
	}
	return env.Stats, env.Incompatible, true
}

// NewProfiler creates a Profiler whose fan-outs use at most workers
// concurrent goroutines; workers <= 0 selects GOMAXPROCS. Each column is
// profiled in one pass on the goroutine that asks for it, so workers
// bounds how many columns run at once: ProfileDatabase's columns, and
// value fit's attribute pairs, which size their fan-out by Workers.
func NewProfiler(workers int) *Profiler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Profiler{workers: workers, entries: make(map[profileKey]*profileEntry)}
}

// Workers returns the concurrency bound of the profiler's fan-outs:
// ProfileDatabase's columns and value fit's attribute pairs.
func (p *Profiler) Workers() int { return p.workers }

// get returns the cached entry for key, computing it via compute exactly
// once on success. Concurrent requests for the same key wait for the
// first computation instead of duplicating it, but stop waiting when
// their context is cancelled. Errors — context cancellation, injected
// faults, and compute failures alike — are returned to the caller and
// never memoized: a failed computation removes its entry, so a transient
// failure does not poison the cache for later callers; a computation
// that panics removes its entry too. A waiter that piggybacked on a
// computation that failed retries from the top (the failing goroutine
// got the error; the waiter may well succeed).
func (p *Profiler) get(ctx context.Context, key profileKey, compute func() (*ColumnStats, int, error)) (*ColumnStats, int, error) {
	if err := faultinject.Fire("profile:column"); err != nil {
		return nil, 0, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		p.mu.Lock()
		e, ok := p.entries[key]
		if ok {
			p.mu.Unlock()
			p.hits.Add(1)
			select {
			case <-e.ready:
				if e.ok {
					return e.stats, e.incompatible, nil
				}
				continue // the computation we waited for failed; retry
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}
		}
		e = &profileEntry{ready: make(chan struct{})}
		p.entries[key] = e
		p.mu.Unlock()
		p.misses.Add(1)
		return p.fill(key, e, compute)
	}
}

// fill completes e, the new in-flight entry for key. A failure — an
// error, or a panic in compute — drops the entry and wakes its waiters,
// which retry; a panic then continues up the caller's stack, so no entry
// is left that never becomes ready.
func (p *Profiler) fill(key profileKey, e *profileEntry, compute func() (*ColumnStats, int, error)) (*ColumnStats, int, error) {
	defer func() {
		if !e.ok {
			p.abandon(key, e)
		}
	}()
	// Durable read-through: a memo miss may still be a disk hit —
	// some earlier process profiled the same bytes. Only on a disk
	// miss is the profile actually computed, and only successful
	// computations are written back (errors are never persisted).
	var dkey string
	if p.store != nil {
		var keyOK bool
		if dkey, keyOK = diskKey(key); keyOK {
			if stats, incompatible, ok := p.loadStored(key, dkey); ok {
				p.diskHits.Add(1)
				e.stats, e.incompatible, e.ok = stats, incompatible, true
				close(e.ready)
				return stats, incompatible, nil
			}
		} else {
			dkey = ""
		}
	}
	stats, incompatible, err := compute()
	if err != nil {
		return nil, 0, err
	}
	p.computes.Add(1)
	if p.store != nil && dkey != "" {
		// Best-effort write-back; NaN/Inf statistics are not
		// JSON-encodable and simply stay memory-only.
		if data, merr := json.Marshal(statsEnvelope{Stats: stats, Incompatible: incompatible}); merr == nil {
			p.store.Put(dkey, data)
		}
	}
	e.stats, e.incompatible, e.ok = stats, incompatible, true
	close(e.ready)
	return stats, incompatible, nil
}

// abandon removes e, the failed in-flight entry for key, and wakes its
// waiters; e.ok stays false, so they retry.
func (p *Profiler) abandon(key profileKey, e *profileEntry) {
	p.mu.Lock()
	if p.entries[key] == e { // not already dropped by Forget and replaced
		delete(p.entries, key)
	}
	p.mu.Unlock()
	close(e.ready)
}

// Column returns the memoized profile of a column under its declared type
// (the raw view: values are profiled as stored).
func (p *Profiler) Column(db *relational.Database, table, column string) (*ColumnStats, error) {
	return p.ColumnContext(context.Background(), db, table, column)
}

// ColumnContext is Column with cancellation: a caller whose context is
// done stops waiting (and new computations are not started), without
// disturbing other users of the shared cache.
func (p *Profiler) ColumnContext(ctx context.Context, db *relational.Database, table, column string) (*ColumnStats, error) {
	col, err := lookupColumn(db, table, column)
	if err != nil {
		return nil, err
	}
	key := profileKey{db: db, table: table, column: column, typ: col.Type}
	cs, _, err := p.get(ctx, key, func() (*ColumnStats, int, error) {
		return FromVector(table, column, db.Vector(table, column)), 0, nil
	})
	return cs, err
}

// lookupColumn returns the declaration of table.column, or the error
// every profiling entry point reports for an unknown table or column.
func lookupColumn(db *relational.Database, table, column string) (relational.Column, error) {
	t := db.Schema.Table(table)
	if t == nil {
		return relational.Column{}, fmt.Errorf("profile: unknown table %s", table)
	}
	col, ok := t.Column(column)
	if !ok {
		return relational.Column{}, fmt.Errorf("profile: unknown column %s.%s", table, column)
	}
	return col, nil
}

// ColumnCoerced returns the memoized profile of a column viewed through a
// different type: every value is coerced to typ, values that cannot be
// coerced are dropped and counted (the "incompatible" return), and the
// surviving values (including NULLs) are profiled under typ. This is the
// view the value-fit detector takes of a source column: how the data will
// look once integrated into the target attribute.
func (p *Profiler) ColumnCoerced(db *relational.Database, table, column string, typ relational.Type) (*ColumnStats, int, error) {
	return p.ColumnCoercedContext(context.Background(), db, table, column, typ)
}

// ColumnCoercedContext is ColumnCoerced with cancellation. Viewing a
// column through its declared type changes no value, so that view is the
// raw profile: the same memo entry and disk key as ColumnContext, with no
// incompatible values. Any other view profiles the column
// relational.Coerced derives (FromVectorCoerced), except the view
// of an integer column as strings, which is derived from the column's
// raw profile; that profile is looked up (memo, store, or compute) like
// ColumnContext, and an error from the lookup fails the view.
func (p *Profiler) ColumnCoercedContext(ctx context.Context, db *relational.Database, table, column string, typ relational.Type) (*ColumnStats, int, error) {
	col, err := lookupColumn(db, table, column)
	if err != nil {
		return nil, 0, err
	}
	if col.Type == typ {
		cs, err := p.ColumnContext(ctx, db, table, column)
		return cs, 0, err
	}
	key := profileKey{db: db, table: table, column: column, typ: typ, coerced: true}
	return p.get(ctx, key, func() (*ColumnStats, int, error) {
		vec := db.Vector(table, column)
		if col.Type == relational.Integer && typ == relational.String {
			// The view shares most statistics with the raw profile,
			// which a value-fit check has always requested first: a
			// memo hit, or a disk hit in a warm process.
			raw, err := p.ColumnContext(ctx, db, table, column)
			if err != nil {
				return nil, 0, err
			}
			return intStringView(table, column, vec, raw), 0, nil
		}
		cs, incompatible := FromVectorCoerced(table, column, vec, typ)
		return cs, incompatible, nil
	})
}

// ProfileDatabase profiles every column of every table, bounded by the
// worker pool, and returns the profiles in schema order (tables in schema
// order, columns in declaration order).
func (p *Profiler) ProfileDatabase(db *relational.Database) ([]*ColumnStats, error) {
	return p.ProfileDatabaseContext(context.Background(), db)
}

// ProfileDatabaseContext is ProfileDatabase with cancellation: once the
// context is done, no further column is profiled and the context's
// error is returned. The columns run through fanout.Run on up to
// Workers() goroutines, so otherwise the first failing column's error
// in schema order is returned.
func (p *Profiler) ProfileDatabaseContext(ctx context.Context, db *relational.Database) ([]*ColumnStats, error) {
	var cols []relational.ColumnRef
	for _, t := range db.Schema.Tables() {
		for _, c := range t.Columns {
			cols = append(cols, relational.ColumnRef{Table: t.Name, Column: c.Name})
		}
	}
	out := make([]*ColumnStats, len(cols))
	err := fanout.Run(len(cols), p.workers, func(i int) (err error) {
		out[i], err = p.ColumnContext(ctx, db, cols[i].Table, cols[i].Column)
		return err
	})
	if ctxErr := ctx.Err(); ctxErr != nil {
		err = ctxErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Counters returns how many lookups were served from the cache (hits) and
// how many required profiling work (misses).
func (p *Profiler) Counters() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// DiskCounters splits the memo misses: diskHits were served from the
// durable store without recomputing, computes ran the profiling kernels.
// With no store installed diskHits is always zero.
func (p *Profiler) DiskCounters() (diskHits, computes int64) {
	return p.diskHits.Load(), p.computes.Load()
}

// HitRate returns the share of lookups served from the cache, or 0 before
// any lookup.
func (p *Profiler) HitRate() float64 {
	h, m := p.Counters()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len returns the number of cached column profiles.
func (p *Profiler) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

// Forget drops every cached profile of db, releasing the references that
// pin it in memory; the counters and other databases' profiles stay.
// Lookups already waiting on a dropped entry still receive its result.
func (p *Profiler) Forget(db *relational.Database) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key := range p.entries {
		if key.db == db {
			delete(p.entries, key)
		}
	}
}

// Reset drops every cached profile and zeroes the counters, releasing the
// references that pin profiled database instances in memory.
func (p *Profiler) Reset() {
	p.mu.Lock()
	p.entries = make(map[profileKey]*profileEntry)
	p.mu.Unlock()
	p.hits.Store(0)
	p.misses.Store(0)
	p.diskHits.Store(0)
	p.computes.Store(0)
}
