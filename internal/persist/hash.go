package persist

// Content-address derivation for the durable caches. The same functions
// key the one-shot CLI and the daemon, so a scenario estimated by either
// warms the other: a key is a pure function of the data content (table
// bytes via relational.Database.ContentHash), the schema and
// correspondence declarations, the expected quality, and the effort
// configuration — never of pointers, upload order, wall-clock time, or
// process identity.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/profile"
	"efes/internal/relational"
)

// FormatVersion tags every derived key. Bump it when a serialized format
// (ResultExport JSON, ColumnStats JSON, hash derivation) changes shape:
// old entries then simply stop matching instead of being misread.
const FormatVersion = "efes-cache-v1"

// ScenarioHash content-addresses a scenario: target and source schema
// declarations, per-table instance hashes, correspondences, and the
// scenario and source names (the names appear verbatim in rendered
// results, so two identically-shaped scenarios with different names must
// not share result entries).
func ScenarioHash(s *core.Scenario) (string, error) {
	h := sha256.New()
	write(h, FormatVersion, "scenario", s.Name)
	if err := hashDB(h, "target", s.Target); err != nil {
		return "", err
	}
	for _, src := range s.Sources {
		if err := hashDB(h, "source:"+src.Name, src.DB); err != nil {
			return "", err
		}
		for _, c := range src.Correspondences.All {
			write(h, c.String(), fmt.Sprintf("%g", c.Confidence))
		}
		write(h, "end-correspondences")
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// write feeds NUL-delimited parts into the hash.
func write(h hash.Hash, parts ...string) {
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
}

// hashDB feeds one database — schema declaration plus the content hash
// of every table, in schema order — into the hash.
func hashDB(h hash.Hash, label string, db *relational.Database) error {
	write(h, label, db.Schema.String())
	for _, t := range db.Schema.Tables() {
		th, err := db.ContentHash(t.Name)
		if err != nil {
			return fmt.Errorf("persist: hash %s.%s: %w", label, t.Name, err)
		}
		write(h, t.Name, th)
	}
	return nil
}

// ConfigFingerprint hashes an effort configuration (execution settings
// plus the per-task-type function table): results priced under different
// configurations must not share cache entries.
func ConfigFingerprint(cfg effort.Config) (string, error) {
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("persist: fingerprint config: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// ResultKey derives the result-cache key for one estimate: scenario
// content, expected quality and effort configuration. The trailing
// "exact" segment names the profiling engine, as keys always have, so
// cache directories written by earlier versions stay warm
// (TestResultKeyPinned). The mode argument no longer selects anything —
// profile.ModeExact is the only mode — and stays only because the
// benchmark module (perfbench) calls ResultKey with four arguments. The
// resilience policy is deliberately not part of the key — only
// non-degraded results are ever persisted, and a non-degraded result is
// byte-identical under every policy and worker count (the determinism
// contract).
func ResultKey(scenarioHash string, q effort.Quality, configFingerprint string, _ profile.Mode) string {
	sum := sha256.Sum256([]byte(FormatVersion + "\x00result\x00" + scenarioHash + "\x00" + q.String() + "\x00" + configFingerprint + "\x00exact"))
	return hex.EncodeToString(sum[:])
}
