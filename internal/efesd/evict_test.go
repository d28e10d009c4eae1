package efesd

// Scenario-store eviction tests: idle-TTL expiry under an injected fake
// clock, LRU eviction at the MaxScenarios cap, the /v1/status eviction
// counters, warm re-upload through the durable cache, and a race-detector
// workout of concurrent uploads, estimates, and evictions.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"efes/internal/persist"
	"efes/internal/scenario"
)

// fakeClock is a mutable injected clock, safe for concurrent use.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// status fetches and decodes GET /v1/status.
func status(t *testing.T, baseURL string) statusResponse {
	t.Helper()
	resp, data := get(t, baseURL+"/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestScenarioTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	cache, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	_, ts := newTestServer(t, Config{
		Cache:       cache,
		ScenarioTTL: time.Minute,
		Now:         clock.Now,
	})
	uploadMusic(t, ts.URL, nil)

	// Fresh upload estimates normally and repeated use keeps it alive:
	// each touch restarts the idle clock.
	for i := 0; i < 3; i++ {
		clock.Advance(45 * time.Second)
		if resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate %d status = %d: %s", i, resp.StatusCode, data)
		}
	}

	// Past the idle TTL the scenario is gone: the lookup evicts it and
	// the request is a 404, counted as a TTL eviction.
	clock.Advance(2 * time.Minute)
	if resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-TTL estimate status = %d, want 404", resp.StatusCode)
	}
	st := status(t, ts.URL)
	if st.ScenariosEvictedTTL != 1 || st.ScenariosEvictedLRU != 0 {
		t.Errorf("evictions = %d TTL / %d LRU, want 1 / 0", st.ScenariosEvictedTTL, st.ScenariosEvictedLRU)
	}
	if st.Scenarios != 0 {
		t.Errorf("resident scenarios = %d, want 0", st.Scenarios)
	}

	// Re-upload recovers cleanly, and the durable caches are content
	// addressed: the re-uploaded scenario's result is still warm.
	uploadMusic(t, ts.URL, nil)
	resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload estimate status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Efes-Cache") != "hit" {
		t.Errorf("re-upload estimate cache = %q, want hit (content-addressed result survived eviction)", resp.Header.Get("X-Efes-Cache"))
	}
}

func TestScenarioLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxScenarios: 2})
	hdr := func(tenant string) map[string]string {
		return map[string]string{"X-Efes-Tenant": tenant}
	}
	estimate := func(tenant string) int {
		resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), hdr(tenant))
		return resp.StatusCode
	}

	uploadMusic(t, ts.URL, hdr("a"))
	uploadMusic(t, ts.URL, hdr("b"))
	// Touch a so that b is the least recently used entry.
	if code := estimate("a"); code != http.StatusOK {
		t.Fatalf("tenant a estimate = %d", code)
	}
	// The third upload exceeds the cap and evicts b, not a.
	uploadMusic(t, ts.URL, hdr("c"))

	if code := estimate("b"); code != http.StatusNotFound {
		t.Errorf("evicted tenant b estimate = %d, want 404", code)
	}
	if code := estimate("a"); code != http.StatusOK {
		t.Errorf("tenant a estimate after eviction = %d, want 200", code)
	}
	if code := estimate("c"); code != http.StatusOK {
		t.Errorf("tenant c estimate = %d, want 200", code)
	}
	st := status(t, ts.URL)
	if st.ScenariosEvictedLRU != 1 || st.ScenariosEvictedTTL != 0 {
		t.Errorf("evictions = %d LRU / %d TTL, want 1 / 0", st.ScenariosEvictedLRU, st.ScenariosEvictedTTL)
	}
	if st.Scenarios != 2 {
		t.Errorf("resident scenarios = %d, want 2", st.Scenarios)
	}
}

func TestScenarioUnboundedWhenNegative(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxScenarios: -1})
	for _, tenant := range []string{"a", "b", "c", "d", "e"} {
		uploadMusic(t, ts.URL, map[string]string{"X-Efes-Tenant": tenant})
	}
	st := status(t, ts.URL)
	if st.Scenarios != 5 || st.ScenariosEvictedLRU != 0 {
		t.Errorf("scenarios = %d (evictedLRU %d), want 5 resident, 0 evicted", st.Scenarios, st.ScenariosEvictedLRU)
	}
}

// TestConcurrentUploadEvict drives uploads, estimates, listings, and
// clock advances from many goroutines against a tightly capped store.
// Its assertions are loose — the point is a race-detector-clean workout
// of the eviction paths plus counter/size accounting at quiescence.
func TestConcurrentUploadEvict(t *testing.T) {
	clock := newFakeClock()
	_, ts := newTestServer(t, Config{
		MaxScenarios: 3,
		ScenarioTTL:  time.Minute,
		Now:          clock.Now,
	})

	tenants := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			hdr := map[string]string{"X-Efes-Tenant": tenant}
			for i := 0; i < 4; i++ {
				uploadMusic(t, ts.URL, hdr)
				clock.Advance(time.Second)
				// The scenario may already be evicted by a neighbour's
				// upload: 404 is as valid as 200 here.
				resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), hdr)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("tenant %s estimate = %d", tenant, resp.StatusCode)
				}
				get(t, ts.URL+"/v1/scenarios")
			}
		}(tenant)
	}
	wg.Wait()

	clock.Advance(2 * time.Minute)
	st := status(t, ts.URL)
	if st.Scenarios != 0 {
		t.Errorf("resident scenarios after TTL sweep = %d, want 0", st.Scenarios)
	}
	if st.ScenariosEvictedLRU == 0 {
		t.Error("no LRU evictions despite 24 uploads into a cap of 3")
	}
}

// TestProfilerMemoReleasesEvictedScenarios: the shared profiler keys its
// memo by database pointer, so every scenario that leaves the store —
// LRU victim, replaced re-upload, or TTL expiry — must leave the memo
// too, or the daemon keeps every database it ever parsed alive.
func TestProfilerMemoReleasesEvictedScenarios(t *testing.T) {
	clock := newFakeClock()
	srv, ts := newTestServer(t, Config{MaxScenarios: 2, ScenarioTTL: time.Minute, Now: clock.Now})
	uploadAndEstimate := func(name string, seed int64) {
		t.Helper()
		cfg := scenario.SmallExampleConfig()
		cfg.Seed = seed
		scn := scenario.MusicExample(cfg)
		scn.Name = name
		if resp, data := post(t, ts.URL+"/v1/scenarios", renderUpload(t, scn), nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s status = %d: %s", name, resp.StatusCode, data)
		}
		if resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(name, ""), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate %s status = %d: %s", name, resp.StatusCode, data)
		}
	}
	uploadAndEstimate("s0", 1)
	perScenario := srv.Profiler().Len()
	if perScenario == 0 {
		t.Fatal("an estimate left no profiles in the memo")
	}
	for i := 1; i < 10; i++ {
		uploadAndEstimate(fmt.Sprintf("s%d", i), int64(i+1))
		if n := srv.Profiler().Len(); n > 2*perScenario {
			t.Fatalf("after %d uploads into a cap of 2 the memo holds %d profiles, want <= %d (2 live scenarios)", i+1, n, 2*perScenario)
		}
	}
	// A re-upload under a live name replaces the scenario's databases.
	uploadAndEstimate("s9", 99)
	if n := srv.Profiler().Len(); n > 2*perScenario {
		t.Fatalf("after a re-upload the memo holds %d profiles, want <= %d", n, 2*perScenario)
	}
	// TTL expiry releases the rest.
	clock.Advance(2 * time.Minute)
	if st := status(t, ts.URL); st.Scenarios != 0 {
		t.Fatalf("resident scenarios after TTL sweep = %d, want 0", st.Scenarios)
	}
	if n := srv.Profiler().Len(); n != 0 {
		t.Errorf("memo holds %d profiles with no live scenario, want 0", n)
	}
}

// TestProfilerMemoReleasesLateProfiles: a request still running on a
// scenario that was replaced meanwhile may profile its databases after
// the drop; finishing the request releases those profiles too.
func TestProfilerMemoReleasesLateProfiles(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/profile", nil)
	entry, ok := srv.lookup(req, musicName)
	if !ok {
		t.Fatal("uploaded scenario not found")
	}
	profileFirstColumn := func(e *scenarioEntry) {
		t.Helper()
		tab := e.scn.Target.Schema.Tables()[0]
		if _, err := srv.Profiler().Column(e.scn.Target, tab.Name, tab.Columns[0].Name); err != nil {
			t.Fatal(err)
		}
	}
	uploadMusic(t, ts.URL, nil) // replaces entry and forgets its databases
	profileFirstColumn(entry)   // the in-flight request, after the drop
	if n := srv.Profiler().Len(); n != 1 {
		t.Fatalf("memo holds %d profiles, want the late one", n)
	}
	srv.releaseIfDropped(req, musicName, entry)
	if n := srv.Profiler().Len(); n != 0 {
		t.Errorf("memo holds %d profiles of a replaced scenario after its request finished, want 0", n)
	}
	live, _ := srv.lookup(req, musicName)
	profileFirstColumn(live)
	srv.releaseIfDropped(req, musicName, live)
	if n := srv.Profiler().Len(); n != 1 {
		t.Errorf("memo holds %d profiles of the live scenario, want 1 kept", n)
	}
}
