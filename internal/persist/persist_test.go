package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/match"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
)

func open(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPutGetRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	payload := []byte(`{"answer":42}`)
	c.Put("stats", "k1", payload)
	got, ok := c.Get("stats", "k1")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want payload", got, ok)
	}
	if _, ok := c.Get("stats", "other"); ok {
		t.Error("miss expected for unknown key")
	}
	if _, ok := c.Get("result", "k1"); ok {
		t.Error("namespaces must not alias")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v; want 1 entry, 1 hit, 2 misses", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process (new Cache over the same dir) is warm.
	c2 := open(t, dir, Options{})
	if got, ok := c2.Get("stats", "k1"); !ok || string(got) != string(payload) {
		t.Fatalf("reopened Get = %q, %v; want warm hit", got, ok)
	}
	if st := c2.Stats(); st.Entries != 1 {
		t.Errorf("reopened entries = %d, want 1", st.Entries)
	}
}

func TestNamespaceView(t *testing.T) {
	c := open(t, t.TempDir(), Options{})
	ns := c.Namespace("stats")
	ns.Put("k", []byte("v"))
	if got, ok := ns.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("NS.Get = %q, %v", got, ok)
	}
	if got, ok := c.Get("stats", "k"); !ok || string(got) != "v" {
		t.Fatalf("Cache.Get through NS key = %q, %v", got, ok)
	}
}

// entryPath returns the on-disk path of a key's entry.
func entryPath(c *Cache, ns, key string) string {
	return filepath.Join(c.Dir(), ns, fileName(key)+".ce")
}

func TestCorruptEntryIsQuarantinedAndRecomputable(t *testing.T) {
	for name, damage := range map[string]func(path string) error{
		"flipped-byte": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[0] ^= 0xFF
			return os.WriteFile(path, data, 0o644)
		},
		"short-write": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"empty-file": func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		},
		"bad-magic": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			copy(data[len(data)-footerSize:], "NOTMAGIC")
			return os.WriteFile(path, data, 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := open(t, t.TempDir(), Options{})
			c.Put("stats", "k", []byte("payload"))
			if err := damage(entryPath(c, "stats", "k")); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("stats", "k"); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			st := c.Stats()
			if st.Quarantined != 1 {
				t.Errorf("quarantined = %d, want 1", st.Quarantined)
			}
			if st.Entries != 0 {
				t.Errorf("entries = %d, want 0 after quarantine", st.Entries)
			}
			// The damaged bytes are preserved for post-mortems.
			q, err := os.ReadDir(filepath.Join(c.Dir(), "quarantine"))
			if err != nil || len(q) != 1 {
				t.Errorf("quarantine dir: %v, %d files; want 1", err, len(q))
			}
			// Recompute-and-repair: a fresh Put serves again.
			c.Put("stats", "k", []byte("payload"))
			if got, ok := c.Get("stats", "k"); !ok || string(got) != "payload" {
				t.Errorf("repaired Get = %q, %v", got, ok)
			}
		})
	}
}

func TestOpenSweepsCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	c.Put("stats", "k", []byte("v"))
	c.Close()
	// Simulate a crash mid-write: a temp file next to a good entry.
	tmp := filepath.Join(dir, "stats", fileName("k")+".tmp999-1")
	if err := os.WriteFile(tmp, []byte("half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := open(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("temp file survived reopen")
	}
	if got, ok := c2.Get("stats", "k"); !ok || string(got) != "v" {
		t.Errorf("good entry lost in sweep: %q, %v", got, ok)
	}
}

func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open on a locked cache must fail")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	c2.Close()
}

func TestLRUEviction(t *testing.T) {
	// Each entry is payload(8) + footer bytes; budget fits three.
	payload := []byte("12345678")
	per := int64(len(payload) + footerSize)
	c := open(t, t.TempDir(), Options{MaxBytes: 3 * per})
	c.Put("stats", "a", payload)
	c.Put("stats", "b", payload)
	c.Put("stats", "c", payload)
	// Touch "a" so "b" is the least recently used.
	if _, ok := c.Get("stats", "a"); !ok {
		t.Fatal("warmup miss")
	}
	c.Put("stats", "d", payload)
	if _, ok := c.Get("stats", "b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get("stats", k); !ok {
			t.Errorf("entry %s evicted, want resident", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("stats = %+v; want 1 eviction, 3 entries", st)
	}
	if _, err := os.Stat(entryPath(c, "stats", "b")); !os.IsNotExist(err) {
		t.Error("evicted entry file still on disk")
	}
}

// TestTouchRefreshesRecency: Touch moves an entry ahead of an older,
// untouched one in the eviction order, as a Get hit would, but counts no
// hit or miss; touching an absent key changes nothing.
func TestTouchRefreshesRecency(t *testing.T) {
	payload := []byte("12345678")
	per := int64(len(payload) + footerSize)
	c := open(t, t.TempDir(), Options{MaxBytes: 2 * per})
	c.Put("results", "a", payload)
	c.Put("results", "b", payload)
	c.Touch("results", "a")
	c.Touch("results", "absent")
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 2 {
		t.Fatalf("after Touch: stats = %+v; want 2 entries, no hits or misses", st)
	}
	// Over the bound, the untouched b is now the least recently used.
	c.Put("results", "c", payload)
	if _, ok := c.Get("results", "b"); ok {
		t.Error("untouched entry b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get("results", k); !ok {
			t.Errorf("entry %s evicted, want resident", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestScenarioHashContentAddressing(t *testing.T) {
	build := func(v string) *relational.Database {
		s := relational.NewSchema("src")
		s.MustAddTable(relational.MustTable("t",
			relational.Column{Name: "a", Type: relational.String}))
		db := relational.NewDatabase(s)
		db.MustInsert("t", v)
		return db
	}
	mk := func(name string) *scenarioFixture {
		return &scenarioFixture{name: name, src: build("x"), tgt: build("x")}
	}
	h1, err := ScenarioHash(mk("s").scenario())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ScenarioHash(mk("s").scenario())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("identical scenarios hashed differently")
	}
	// The name is part of the address (it appears in rendered results).
	hName, err := ScenarioHash(mk("other").scenario())
	if err != nil {
		t.Fatal(err)
	}
	if hName == h1 {
		t.Error("renamed scenario must hash differently")
	}
	// A single changed value changes the address.
	f := mk("s")
	f.src = build("y")
	hMut, err := ScenarioHash(f.scenario())
	if err != nil {
		t.Fatal(err)
	}
	if hMut == h1 {
		t.Error("mutated instance must hash differently")
	}

	// The full music example is hashable and stable.
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	ha, err := ScenarioHash(scn)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := ScenarioHash(scenario.MusicExample(scenario.SmallExampleConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Error("music example hash unstable across generations")
	}
}

func TestResultKeyAndConfigFingerprint(t *testing.T) {
	fp, err := ConfigFingerprint(effort.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := effort.DefaultConfig()
	cfg.Settings.SkillFactor *= 2
	fp2, err := ConfigFingerprint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fp == fp2 {
		t.Error("changed settings must change the fingerprint")
	}
	if ResultKey("h", effort.LowEffort, fp, profile.ModeExact) == ResultKey("h", effort.HighQuality, fp, profile.ModeExact) {
		t.Error("quality must be part of the result key")
	}
	if ResultKey("h", effort.LowEffort, fp, profile.ModeExact) == ResultKey("h", effort.LowEffort, fp2, profile.ModeExact) {
		t.Error("config fingerprint must be part of the result key")
	}
	if ResultKey("h1", effort.LowEffort, fp, profile.ModeExact) == ResultKey("h2", effort.LowEffort, fp, profile.ModeExact) {
		t.Error("scenario hash must be part of the result key")
	}
}

// TestResultKeyPinned pins the result-cache key derivation at both
// qualities for a fixed scenario hash and configuration fingerprint. The
// key addresses entries written by earlier processes: a change that
// moves it turns every existing cache directory cold, and has to say so
// and update these constants.
func TestResultKeyPinned(t *testing.T) {
	const (
		scenarioHash = "5c3d2a1f0e9b8c7d6e5f4a3b2c1d0e9f8a7b6c5d4e3f2a1b0c9d8e7f6a5b4c3d"
		configPrint  = "0f1e2d3c4b5a69788796a5b4c3d2e1f00f1e2d3c4b5a69788796a5b4c3d2e1f0"
	)
	for _, tc := range []struct {
		q    effort.Quality
		want string
	}{
		{effort.LowEffort, "86b0ab70188a8b221a9958f3b7b182eede973d0425d8060eeb2c87043a4d1bdf"},
		{effort.HighQuality, "63e76e06a94a1e28d1a1de6730b6e822acf9473484ed8a85bf9830b6d19edb0a"},
	} {
		if got := ResultKey(scenarioHash, tc.q, configPrint, profile.ModeExact); got != tc.want {
			t.Errorf("ResultKey(%s) = %s, want the pinned %s", tc.q, got, tc.want)
		}
	}
}

// scenarioFixture assembles a minimal one-source scenario.
type scenarioFixture struct {
	name     string
	src, tgt *relational.Database
}

func (f *scenarioFixture) scenario() *core.Scenario {
	corrs := (&match.Set{}).Attr("t", "a", "t", "a")
	return &core.Scenario{
		Name:    f.name,
		Target:  f.tgt,
		Sources: []*core.Source{{Name: "s1", DB: f.src, Correspondences: corrs}},
	}
}

func TestStringsContainsTmpNaming(t *testing.T) {
	// The sweep keys off ".tmp" in the name; the writer must keep using it.
	c := open(t, t.TempDir(), Options{})
	c.Put("stats", "k", []byte("v"))
	files, err := os.ReadDir(filepath.Join(c.Dir(), "stats"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(f.Name(), ".tmp") {
			t.Errorf("temp file %s left behind by a successful Put", f.Name())
		}
	}
}

// corruptEntry flips a byte of the stored entry so the next Get
// quarantines it.
func corruptEntry(t *testing.T, c *Cache, ns, key string) {
	t.Helper()
	path := entryPath(c, ns, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// quarantineKey stores, corrupts, and reads back one key, landing its
// bytes in quarantine/.
func quarantineKey(t *testing.T, c *Cache, key string, payload []byte) {
	t.Helper()
	c.Put("stats", key, payload)
	corruptEntry(t, c, "stats", key)
	if _, ok := c.Get("stats", key); ok {
		t.Fatalf("corrupt entry %s served as a hit", key)
	}
}

func TestQuarantineCountBound(t *testing.T) {
	c := open(t, t.TempDir(), Options{QuarantineMaxEntries: 3})
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		quarantineKey(t, c, k, []byte("payload"))
	}
	st := c.Stats()
	if st.Quarantined != 6 || st.QuarantineEntries != 3 || st.QuarantinePruned != 3 {
		t.Errorf("stats = %d quarantined, %d held, %d pruned; want 6/3/3",
			st.Quarantined, st.QuarantineEntries, st.QuarantinePruned)
	}
	q, err := os.ReadDir(filepath.Join(c.Dir(), "quarantine"))
	if err != nil || len(q) != 3 {
		t.Fatalf("quarantine dir: %v, %d files; want 3", err, len(q))
	}
	// Oldest-first pruning: the earliest quarantined keys are gone and
	// the three newest remain.
	for _, f := range q {
		for _, old := range []string{"a", "b", "c"} {
			if strings.HasPrefix(f.Name(), "stats-"+fileName(old)+".") {
				t.Errorf("old quarantined file %s survived pruning", f.Name())
			}
		}
	}
}

func TestQuarantineByteBound(t *testing.T) {
	// Each quarantined file is payload(8) + footer bytes; budget two.
	payload := []byte("12345678")
	per := int64(len(payload) + footerSize)
	c := open(t, t.TempDir(), Options{QuarantineMaxBytes: 2 * per})
	for _, k := range []string{"a", "b", "c", "d"} {
		quarantineKey(t, c, k, payload)
	}
	st := c.Stats()
	if st.QuarantineEntries != 2 || st.QuarantineBytes != 2*per || st.QuarantinePruned != 2 {
		t.Errorf("stats = %d held, %d bytes, %d pruned; want 2, %d, 2",
			st.QuarantineEntries, st.QuarantineBytes, st.QuarantinePruned, 2*per)
	}
}

func TestQuarantineBoundHoldsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c := open(t, dir, Options{})
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		quarantineKey(t, c, k, []byte("payload"))
	}
	if st := c.Stats(); st.QuarantineEntries != 5 {
		t.Fatalf("held = %d, want 5 under the default bound", st.QuarantineEntries)
	}
	c.Close()

	// A reopen with a tighter bound prunes what the looser one kept.
	c2 := open(t, dir, Options{QuarantineMaxEntries: 2})
	if st := c2.Stats(); st.QuarantineEntries != 2 || st.QuarantinePruned != 3 {
		t.Errorf("reopened stats = %d held, %d pruned; want 2, 3", st.QuarantineEntries, st.QuarantinePruned)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 2 {
		t.Errorf("quarantine dir after reopen: %v, %d files; want 2", err, len(q))
	}
}
