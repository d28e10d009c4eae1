// Package persist is the durable, crash-safe substrate under the
// estimation service: a content-addressed on-disk cache for computed
// artifacts (column profiles, estimation results) shared by the one-shot
// CLI (cmd/efes -cache-dir) and the daemon (cmd/efesd), so that restarts
// are warm and repeat estimates are near-instant.
//
// Design invariants:
//
//   - Atomic writes. An entry is staged to a temp file in the same
//     directory, fsynced, and renamed into place; readers therefore see
//     either the previous entry or the complete new one, never a torn
//     write. A crash mid-write leaves only a temp file, which the next
//     Open sweeps away.
//   - Self-verifying entries. Every file ends in a fixed-size footer
//     (magic, payload length, SHA-256 of the payload). A short file, a
//     flipped bit, or a truncated payload fails verification.
//   - Corruption degrades, never fails. A bad entry is quarantined
//     (moved aside for post-mortems) and reported as a miss, so the
//     caller recomputes and the next write repairs the cache.
//   - Single writer. Open takes an exclusive advisory lock on the cache
//     directory; a second process gets a clear error instead of silent
//     interleaved writes. The lock dies with the process, so a SIGKILLed
//     daemon never wedges its successor.
//   - Bounded size. Entries are evicted least-recently-used once the
//     payload bytes exceed the configured budget; the recency order is
//     seeded from file modification times at Open and maintained
//     logically afterwards (no wall-clock reads — determinism contract).
//
// Every I/O path is instrumented with deterministic fault points
// (persist:read, persist:write, persist:corrupt, persist:lock) so the
// resilience suite can prove that cache failures degrade to
// recompute-and-serve rather than failed requests.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"efes/internal/faultinject"
)

// footer layout: magic (8) | payload length (8, big endian) | sha256 (32).
const (
	footerMagic = "EFESCAC1"
	footerSize  = 8 + 8 + sha256.Size
)

// DefaultMaxBytes bounds the cache payload size when Options.MaxBytes is
// zero: 256 MiB holds tens of thousands of column profiles.
const DefaultMaxBytes = 256 << 20

// Default bounds of the quarantine directory: corrupt entries are kept
// as evidence, but a cache that keeps corrupting must not grow the
// evidence pile without bound.
const (
	DefaultQuarantineMaxEntries = 64
	DefaultQuarantineMaxBytes   = 32 << 20
)

// Options configure Open.
type Options struct {
	// MaxBytes bounds the total payload bytes kept on disk; the least
	// recently used entries are evicted beyond it. 0 selects
	// DefaultMaxBytes; negative disables eviction.
	MaxBytes int64
	// QuarantineMaxEntries and QuarantineMaxBytes bound the quarantine
	// directory (count and bytes); the oldest quarantined files are
	// pruned beyond either. 0 selects the defaults; negative disables
	// that bound.
	QuarantineMaxEntries int
	QuarantineMaxBytes   int64
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Entries and Bytes describe the current resident set.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count Get outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the size bound.
	Evictions int64 `json:"evictions"`
	// Quarantined counts entries that failed verification and were
	// moved aside.
	Quarantined int64 `json:"quarantined"`
	// QuarantineEntries and QuarantineBytes describe the files currently
	// held in quarantine/; QuarantinePruned counts quarantined files
	// dropped (oldest first) by the quarantine bounds.
	QuarantineEntries int   `json:"quarantineEntries"`
	QuarantineBytes   int64 `json:"quarantineBytes"`
	QuarantinePruned  int64 `json:"quarantinePruned"`
	// ReadErrors and WriteErrors count I/O failures that were degraded
	// to a miss / a skipped write.
	ReadErrors  int64 `json:"readErrors"`
	WriteErrors int64 `json:"writeErrors"`
}

// entry is one resident cache entry in the in-memory index.
// The struct carries the efes:cache-entry marker: like the profiler's
// memo slots, persisted entries must never hold an error (errors are
// degraded at the call site, not cached).
//
//efes:cache-entry
type entry struct {
	ns, name string
	size     int64 // payload + footer bytes on disk
	seq      int64 // logical recency; larger = more recent
}

// Cache is a content-addressed on-disk cache. It is safe for concurrent
// use by multiple goroutines of one process; cross-process exclusion is
// enforced by the directory lock.
//
//efes:daemon-lifetime
//efes:resource Close
type Cache struct {
	dir          string
	maxBytes     int64
	quarMax      int
	quarMaxBytes int64

	mu      sync.Mutex
	entries map[string]*entry //efes:guardedby mu — key: ns + "/" + name
	bytes   int64             //efes:guardedby mu
	seq     int64             //efes:guardedby mu

	// quar indexes the files resident in quarantine/ so the bound can
	// prune oldest-first without rescanning the directory.
	quar       []*quarFile //efes:guardedby mu — bounded by quarPruneLocked
	quarBytes  int64       //efes:guardedby mu
	quarPruned int64       //efes:guardedby mu

	lock *os.File

	hits, misses, evictions, quarantined, readErrs, writeErrs int64 //efes:guardedby mu
}

// quarFile is one file resident in the quarantine directory.
type quarFile struct {
	name string
	size int64
	seq  int64 // logical age; smaller = older, pruned first
}

// Open opens (creating if necessary) the cache rooted at dir and acquires
// its exclusive lock. A cache already locked by another live process is
// an error — callers are expected to degrade to running without a durable
// cache. Crash leftovers (temp files) are swept; existing entries are
// indexed with their recency seeded from file modification times.
func Open(dir string, opts Options) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := faultinject.Fire("persist:lock"); err != nil {
		return nil, fmt.Errorf("persist: lock %s: %w", dir, err)
	}
	lock, err := acquireLock(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, fmt.Errorf("persist: lock %s: %w", dir, err)
	}
	c := &Cache{
		dir:          dir,
		maxBytes:     opts.MaxBytes,
		quarMax:      opts.QuarantineMaxEntries,
		quarMaxBytes: opts.QuarantineMaxBytes,
		entries:      make(map[string]*entry),
	}
	if c.maxBytes == 0 {
		c.maxBytes = DefaultMaxBytes
	}
	if c.quarMax == 0 {
		c.quarMax = DefaultQuarantineMaxEntries
	}
	if c.quarMaxBytes == 0 {
		c.quarMaxBytes = DefaultQuarantineMaxBytes
	}
	if err := c.scan(); err != nil {
		releaseLock(lock)
		return nil, err
	}
	c.lock = lock
	return c, nil
}

// Close releases the cache's directory lock. The on-disk state needs no
// finalization — every write was already atomic and self-verifying.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lock == nil {
		return nil
	}
	err := releaseLock(c.lock)
	c.lock = nil
	return err
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// scan indexes the existing entries and sweeps crash leftovers. Recency
// is seeded by file modification time (oldest first), ties broken by
// name, so a freshly opened cache evicts in a deterministic order.
func (c *Cache) scan() error {
	type found struct {
		e     *entry
		mtime int64
	}
	var all []found
	nsDirs, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	for _, nd := range nsDirs {
		if !nd.IsDir() || nd.Name() == "quarantine" {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.dir, nd.Name()))
		if err != nil {
			return fmt.Errorf("persist: %w", err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(c.dir, nd.Name(), f.Name())
			if strings.Contains(f.Name(), ".tmp") {
				os.Remove(path) // crash leftover from an interrupted write
				continue
			}
			if !strings.HasSuffix(f.Name(), ".ce") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // raced removal; skip
			}
			all = append(all, found{
				e: &entry{
					ns:   nd.Name(),
					name: strings.TrimSuffix(f.Name(), ".ce"),
					size: info.Size(),
				},
				mtime: info.ModTime().UnixNano(),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].mtime != all[j].mtime {
			return all[i].mtime < all[j].mtime
		}
		if all[i].e.ns != all[j].e.ns {
			return all[i].e.ns < all[j].e.ns
		}
		return all[i].e.name < all[j].e.name
	})
	for _, f := range all {
		c.seq++
		f.e.seq = c.seq
		c.entries[f.e.ns+"/"+f.e.name] = f.e
		c.bytes += f.e.size
	}

	// Index quarantine/ so its bound holds across restarts: oldest (by
	// modification time, ties by name) first, then prune whatever a
	// previous, larger bound left behind. Open is single-threaded, but
	// the seeding holds the lock anyway so quarPruneLocked's contract
	// (caller holds c.mu) is literal at every call site.
	qdir := filepath.Join(c.dir, "quarantine")
	if files, err := os.ReadDir(qdir); err == nil {
		type qfound struct {
			f     *quarFile
			mtime int64
		}
		var qs []qfound
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // raced removal; skip
			}
			qs = append(qs, qfound{
				f:     &quarFile{name: f.Name(), size: info.Size()},
				mtime: info.ModTime().UnixNano(),
			})
		}
		sort.Slice(qs, func(i, j int) bool {
			if qs[i].mtime != qs[j].mtime {
				return qs[i].mtime < qs[j].mtime
			}
			return qs[i].f.name < qs[j].f.name
		})
		c.mu.Lock()
		for _, q := range qs {
			c.seq++
			q.f.seq = c.seq
			c.quar = append(c.quar, q.f)
			c.quarBytes += q.f.size
		}
		prune := c.quarPruneLocked()
		c.mu.Unlock()
		for _, v := range prune {
			os.Remove(filepath.Join(qdir, v.name))
		}
	}
	return nil
}

// fileName maps a caller key to its on-disk name. Keys are hashed so any
// string is a valid key and names stay uniform and path-safe.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// Get returns the payload stored under (ns, key), or ok=false on a miss.
// Every failure mode — injected read fault, missing file, short file,
// checksum mismatch — degrades to a miss; corrupt entries are quarantined
// so they are recomputed instead of re-read.
func (c *Cache) Get(ns, key string) ([]byte, bool) {
	name := fileName(key)
	c.mu.Lock()
	e, ok := c.entries[ns+"/"+name]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.seq++
	e.seq = c.seq
	c.mu.Unlock()

	if err := faultinject.Fire("persist:read"); err != nil {
		c.mu.Lock()
		c.readErrs++
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	path := filepath.Join(c.dir, ns, name+".ce")
	data, err := os.ReadFile(path)
	if err != nil {
		c.mu.Lock()
		c.readErrs++
		c.misses++
		c.dropLocked(ns, name)
		c.mu.Unlock()
		return nil, false
	}
	payload, err := verify(data)
	if err != nil {
		c.quarantine(ns, name, path)
		return nil, false
	}
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	return payload, true
}

// Touch marks the entry under (ns, key) as just used, as a hit by Get
// does, without reading it: no I/O, no fault point, no hit counted, and
// nothing happens when the key has no entry. A caller that serves an
// entry's bytes from its own memory calls Touch, so that the size bound
// still evicts the least recently used entries first.
func (c *Cache) Touch(ns, key string) {
	name := fileName(key)
	c.mu.Lock()
	if e, ok := c.entries[ns+"/"+name]; ok {
		c.seq++
		e.seq = c.seq
	}
	c.mu.Unlock()
}

// verify checks the footer and returns the payload.
func verify(data []byte) ([]byte, error) {
	if len(data) < footerSize {
		return nil, fmt.Errorf("persist: entry shorter than footer (%d bytes)", len(data))
	}
	foot := data[len(data)-footerSize:]
	if string(foot[:8]) != footerMagic {
		return nil, fmt.Errorf("persist: bad entry magic")
	}
	n := binary.BigEndian.Uint64(foot[8:16])
	if n != uint64(len(data)-footerSize) {
		return nil, fmt.Errorf("persist: entry length mismatch: footer %d, payload %d", n, len(data)-footerSize)
	}
	payload := data[:len(data)-footerSize]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], foot[16:]) {
		return nil, fmt.Errorf("persist: entry checksum mismatch")
	}
	return payload, nil
}

// quarantine moves a corrupt entry aside (keeping the bytes as evidence)
// and forgets it, so the caller recomputes. The quarantine directory is
// itself bounded: beyond the configured count or byte budget the oldest
// quarantined files are pruned — a cache that keeps corrupting must not
// grow its evidence pile without bound.
func (c *Cache) quarantine(ns, name, path string) {
	c.mu.Lock()
	c.quarantined++
	c.misses++
	c.dropLocked(ns, name)
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	qdir := filepath.Join(c.dir, "quarantine")
	qname := ns + "-" + name + "." + strconv.FormatInt(seq, 10)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path) // quarantine dir unavailable: at least stop re-reading it
		return
	}
	if os.Rename(path, filepath.Join(qdir, qname)) != nil {
		os.Remove(path)
		return
	}
	var size int64
	if info, err := os.Stat(filepath.Join(qdir, qname)); err == nil {
		size = info.Size()
	}
	c.mu.Lock()
	c.quar = append(c.quar, &quarFile{name: qname, size: size, seq: seq})
	c.quarBytes += size
	prune := c.quarPruneLocked()
	c.mu.Unlock()
	for _, v := range prune {
		os.Remove(filepath.Join(qdir, v.name))
	}
}

// quarPruneLocked trims the quarantine index to its bounds (caller holds
// c.mu) and returns the pruned files so the caller can unlink them
// outside the lock. Oldest (smallest seq) first; concurrent quarantines
// may append out of seq order, so each round scans for the minimum.
func (c *Cache) quarPruneLocked() []*quarFile {
	var out []*quarFile
	for len(c.quar) > 0 &&
		((c.quarMax >= 0 && len(c.quar) > c.quarMax) ||
			(c.quarMaxBytes >= 0 && c.quarBytes > c.quarMaxBytes)) {
		vi := 0
		for i, q := range c.quar {
			if q.seq < c.quar[vi].seq {
				vi = i
			}
		}
		v := c.quar[vi]
		c.quar = append(c.quar[:vi], c.quar[vi+1:]...)
		c.quarBytes -= v.size
		c.quarPruned++
		out = append(out, v)
	}
	return out
}

// dropLocked removes an entry from the index (caller holds c.mu).
func (c *Cache) dropLocked(ns, name string) {
	k := ns + "/" + name
	if e, ok := c.entries[k]; ok {
		c.bytes -= e.size
		delete(c.entries, k)
	}
}

// Put stores payload under (ns, key). The write is atomic
// (temp file + fsync + rename) and best-effort: any failure — injected
// write fault, full disk, unwritable directory — is counted and the
// cache simply does not gain the entry; the caller's computed value is
// unaffected. Put never stores errors: callers only persist successful
// computations.
func (c *Cache) Put(ns, key string, payload []byte) {
	if err := faultinject.Fire("persist:write"); err != nil {
		c.mu.Lock()
		c.writeErrs++
		c.mu.Unlock()
		return
	}
	name := fileName(key)
	dir := filepath.Join(c.dir, ns)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.mu.Lock()
		c.writeErrs++
		c.mu.Unlock()
		return
	}

	data := frame(payload)

	// persist:corrupt simulates a storage-layer lie: the write "succeeds"
	// but the bytes that land on disk are damaged (here: the checksum is
	// flipped), exercising the read path's verify-and-quarantine story.
	if err := faultinject.Fire("persist:corrupt"); err != nil {
		data[len(data)-1] ^= 0xFF
	}

	c.mu.Lock()
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	tmp := filepath.Join(dir, name+".tmp"+strconv.Itoa(os.Getpid())+"-"+strconv.FormatInt(seq, 10))
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		c.mu.Lock()
		c.writeErrs++
		c.mu.Unlock()
		return
	}
	final := filepath.Join(dir, name+".ce")
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		c.mu.Lock()
		c.writeErrs++
		c.mu.Unlock()
		return
	}

	c.mu.Lock()
	k := ns + "/" + name
	if old, ok := c.entries[k]; ok {
		c.bytes -= old.size
	}
	c.seq++
	c.entries[k] = &entry{ns: ns, name: name, size: int64(len(data)), seq: c.seq}
	c.bytes += int64(len(data))
	evict := c.evictionsLocked()
	c.mu.Unlock()
	for _, e := range evict {
		os.Remove(filepath.Join(c.dir, e.ns, e.name+".ce"))
	}
}

// frame returns the on-disk bytes of an entry: the payload followed by
// its footer. verify accepts exactly the outputs of frame.
func frame(payload []byte) []byte {
	data := make([]byte, 0, len(payload)+footerSize)
	data = append(data, payload...)
	var foot [footerSize]byte
	copy(foot[:8], footerMagic)
	binary.BigEndian.PutUint64(foot[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(foot[16:], sum[:])
	return append(data, foot[:]...)
}

// evictionsLocked trims the index to the size bound (caller holds c.mu)
// and returns the evicted entries so the caller can unlink their files
// outside the lock. Least-recent first; ties cannot happen (seq is
// strictly increasing).
func (c *Cache) evictionsLocked() []*entry {
	if c.maxBytes < 0 {
		return nil
	}
	var out []*entry
	for c.bytes > c.maxBytes && len(c.entries) > 0 {
		var victim *entry
		for _, e := range c.entries {
			if victim == nil || e.seq < victim.seq {
				victim = e
			}
		}
		delete(c.entries, victim.ns+"/"+victim.name)
		c.bytes -= victim.size
		c.evictions++
		out = append(out, victim)
	}
	return out
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:           len(c.entries),
		Bytes:             c.bytes,
		Hits:              c.hits,
		Misses:            c.misses,
		Evictions:         c.evictions,
		Quarantined:       c.quarantined,
		QuarantineEntries: len(c.quar),
		QuarantineBytes:   c.quarBytes,
		QuarantinePruned:  c.quarPruned,
		ReadErrors:        c.readErrs,
		WriteErrors:       c.writeErrs,
	}
}

// NS is a namespace-scoped view of a Cache; it implements the
// profile.Store interface (Get/Put on bare keys).
type NS struct {
	c  *Cache
	ns string
}

// Namespace returns a view of the cache scoped to ns. The standard
// namespaces are "stats" (column profiles) and "result" (estimation
// results).
func (c *Cache) Namespace(ns string) NS { return NS{c: c, ns: ns} }

// Get returns the payload stored under key in this namespace.
func (n NS) Get(key string) ([]byte, bool) { return n.c.Get(n.ns, key) }

// Put stores payload under key in this namespace.
func (n NS) Put(key string, payload []byte) { n.c.Put(n.ns, key, payload) }

// writeFileSync writes data to path and fsyncs it, so the subsequent
// rename publishes fully durable bytes.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
