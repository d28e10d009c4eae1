package efesd

// The persist:* fault points exercised through the daemon's HTTP
// surface: every injected durable-cache failure must degrade to
// recompute-and-serve with byte-identical answers — a broken disk slows
// the daemon down, it never changes or fails a response.

import (
	"bytes"
	"net/http"
	"testing"

	"efes/internal/faultinject"
	"efes/internal/persist"
)

// cacheServer builds a server over a fresh durable cache.
func cacheServer(t *testing.T) (*Server, string) {
	t.Helper()
	cache, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	s, ts := newTestServer(t, Config{Cache: cache})
	uploadMusic(t, ts.URL, nil)
	return s, ts.URL
}

func TestFaultPersistReadDegradesToRecompute(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	_, url := cacheServer(t)

	resp, cold := post(t, url+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold estimate status = %d", resp.StatusCode)
	}

	// A failing read degrades the first warm request, the one that reads
	// the disk, to a recompute with identical bytes. Later repeats are
	// served from the memo slot that a successful read fills, so this is
	// the request a broken disk reaches.
	faultinject.Enable("persist:read", faultinject.Fault{Kind: faultinject.Error, Times: 1})
	resp, recomputed := post(t, url+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Cache") != "miss" {
		t.Fatalf("degraded read: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(cold, recomputed) {
		t.Error("recomputed bytes differ from the cold answer")
	}

	// With the fault spent, the next request is a disk hit and the one
	// after it a memo hit, both with the cold bytes.
	for i, tier := range []string{"disk", "memo"} {
		resp, warm := post(t, url+"/v1/estimate", estimateBody(musicName, ""), nil)
		if resp.Header.Get("X-Efes-Cache") != "hit" || !bytes.Equal(cold, warm) {
			t.Errorf("%s hit: cache %q, identical %v", tier, resp.Header.Get("X-Efes-Cache"), bytes.Equal(cold, warm))
		}
		if got := status(t, url).ResultMemoHits; got != int64(i) {
			t.Errorf("after the %s hit resultMemoHits = %d, want %d", tier, got, i)
		}
	}
}

func TestFaultPersistWriteServesWithoutPersisting(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s, url := cacheServer(t)

	// Every write fails: the estimate is still computed and served, the
	// cache just stays empty.
	faultinject.Enable("persist:write", faultinject.Fault{Kind: faultinject.Error})
	resp, cold := post(t, url+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate under write faults: status %d", resp.StatusCode)
	}
	if st := s.cache.Stats(); st.Entries != 0 || st.WriteErrors == 0 {
		t.Errorf("cache = %d entries, %d write errors; want 0 entries, some errors", st.Entries, st.WriteErrors)
	}
	faultinject.Reset()

	// With the disk healed, the next request recomputes, persists, and
	// the one after serves warm and byte-identical.
	resp, clean := post(t, url+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.Header.Get("X-Efes-Cache") != "miss" {
		t.Fatalf("healed estimate not a miss (%q)", resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(cold, clean) {
		t.Error("bytes differ before and after the write faults")
	}
	resp, warm := post(t, url+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.Header.Get("X-Efes-Cache") != "hit" || !bytes.Equal(clean, warm) {
		t.Errorf("warm serve after heal: cache %q, identical %v", resp.Header.Get("X-Efes-Cache"), bytes.Equal(clean, warm))
	}
}

func TestFaultPersistCorruptEntriesAreQuarantinedAndRepaired(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	s, url := cacheServer(t)

	// Every entry written during the cold run lands corrupted on disk.
	faultinject.Enable("persist:corrupt", faultinject.Fault{Kind: faultinject.Error})
	resp, cold := post(t, url+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate under corruption: status %d", resp.StatusCode)
	}
	faultinject.Reset()

	// The corrupted result entry fails verification, is quarantined, and
	// the request degrades to a clean recompute with identical bytes.
	resp, repaired := post(t, url+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Cache") != "miss" {
		t.Fatalf("corrupt read: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(cold, repaired) {
		t.Error("repaired bytes differ from the cold answer")
	}
	if st := s.cache.Stats(); st.Quarantined == 0 {
		t.Error("no entries quarantined despite injected corruption")
	}
	// The repair persisted a clean entry: the next request is warm.
	resp, warm := post(t, url+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.Header.Get("X-Efes-Cache") != "hit" || !bytes.Equal(cold, warm) {
		t.Errorf("post-repair serve: cache %q, identical %v", resp.Header.Get("X-Efes-Cache"), bytes.Equal(cold, warm))
	}
}
