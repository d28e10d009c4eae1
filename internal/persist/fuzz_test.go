package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzVerify checks the footer check that decides which on-disk bytes
// are ever served (and, through efesd's result memo, kept in memory):
// verify never panics and accepts exactly the inputs whose magic, length
// and SHA-256 are intact, that is the outputs of frame; and the same
// bytes written as an entry file and read back through Open and Get are
// served exactly when verify accepts them, and otherwise quarantined, so
// the next Get misses. Seeds in testdata/fuzz/FuzzVerify: empty, 47
// bytes, a valid entry, a valid entry with one payload bit, the magic,
// the length or the last checksum byte altered, and a footer-only entry.
func FuzzVerify(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := verify(data)
		intact := len(data) >= footerSize && bytes.Equal(frame(data[:len(data)-footerSize]), data)
		if (err == nil) != intact {
			t.Fatalf("verify error %v for an input whose footer is intact: %v", err, intact)
		}
		if err == nil && !bytes.Equal(frame(payload), data) {
			t.Fatal("frame of the accepted payload differs from the input")
		}

		dir := t.TempDir()
		path := filepath.Join(dir, "results", fileName("k")+".ce")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got, ok := c.Get("results", "k")
		if ok != intact || (ok && !bytes.Equal(got, payload)) {
			t.Fatalf("Get = %d bytes, %v; verify accepts the entry: %v", len(got), ok, intact)
		}
		if ok {
			return
		}
		if st := c.Stats(); st.Quarantined != 1 || st.Entries != 0 {
			t.Errorf("after a rejected read: %d quarantined, %d entries; want 1 and 0", st.Quarantined, st.Entries)
		}
		if _, ok := c.Get("results", "k"); ok {
			t.Error("a quarantined entry was served by the next Get")
		}
	})
}
