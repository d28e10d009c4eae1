package efesd

// HTTP-layer resilience: a module failure under best-effort yields a 200
// with Failures populated (byte-stable across worker counts), an expired
// request deadline yields the baseline fallback instead of a 500, panics
// are isolated per request, and degraded results never enter the
// durable cache. Test names carry the Resilience/Fault prefixes so
// `make faults` exercises them twice.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"efes/internal/core"
	"efes/internal/faultinject"
	"efes/internal/mapping"
	"efes/internal/persist"
)

func TestResilienceModuleFailureBestEffortIs200(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:detector:"+mapping.ModuleName, faultinject.Fault{Kind: faultinject.Error})

	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Config{Workers: workers})
		uploadMusic(t, ts.URL, nil)
		resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: best-effort module failure must stay 200, got %d: %s", workers, resp.StatusCode, data)
		}
		if resp.Header.Get("X-Efes-Degraded") != "1" {
			t.Errorf("workers=%d: degraded header missing", workers)
		}
		var export core.ResultExport
		if err := json.Unmarshal(data, &export); err != nil {
			t.Fatal(err)
		}
		if !export.Degraded || len(export.Failures) != 1 || export.Failures[0].Module != mapping.ModuleName {
			t.Errorf("workers=%d: failures = %+v", workers, export.Failures)
		}
		if export.Failures[0].FallbackMinutes <= 0 || export.TotalMinutes <= 0 {
			t.Errorf("workers=%d: fallback not substituted: %+v", workers, export.Failures[0])
		}
		bodies = append(bodies, data)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("degraded response bytes differ across worker counts")
	}
}

func TestResilienceFailFastSurfacesAs500(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("core:detector:"+mapping.ModuleName, faultinject.Fault{Kind: faultinject.Error})

	_, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)
	resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, `, "bestEffort": false`), nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("fail-fast status = %d: %s", resp.StatusCode, data)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error == "" {
		t.Error("fail-fast error body is empty")
	}
}

func TestResilienceDeadlineFallsBackToBaseline(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// One slow detector blows the 100 ms request budget; the daemon owes
	// an answer anyway — the all-fallback baseline estimate, marked
	// degraded on every module, never a 500.
	faultinject.Enable("core:detector:"+mapping.ModuleName,
		faultinject.Fault{Kind: faultinject.Delay, Delay: 2 * time.Second})

	_, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)
	resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, `, "timeoutMs": 100`), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline expiry must degrade, not fail: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Efes-Degraded") != "1" {
		t.Error("degraded header missing on fallback response")
	}
	var export core.ResultExport
	if err := json.Unmarshal(data, &export); err != nil {
		t.Fatal(err)
	}
	if !export.Degraded || len(export.Failures) == 0 {
		t.Fatalf("export = %+v, want all-fallback degradation", export)
	}
	for _, f := range export.Failures {
		if f.Stage != "deadline" {
			t.Errorf("failure stage = %q, want deadline", f.Stage)
		}
	}
	if export.TotalMinutes <= 0 {
		t.Error("fallback estimate must still be positive")
	}
	if len(export.Reports) != 0 {
		t.Errorf("reports = %d, want none (nothing completed)", len(export.Reports))
	}
}

func TestResiliencePanicIsolatedPerRequest(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Enable("profile:column", faultinject.Fault{Kind: faultinject.Panic, Times: 1})

	_, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)
	body := []byte(`{"scenario": "music-example", "db": "target", "table": "tracks", "column": "title"}`)
	resp, data := post(t, ts.URL+"/v1/profile", body, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request status = %d: %s", resp.StatusCode, data)
	}
	// The daemon survives: the next request on the same server succeeds.
	resp, data = post(t, ts.URL+"/v1/profile", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request status = %d: %s", resp.StatusCode, data)
	}
	_, status := get(t, ts.URL+"/v1/status")
	var st statusResponse
	if err := json.Unmarshal(status, &st); err != nil {
		t.Fatal(err)
	}
	if st.Panics != 1 {
		t.Errorf("panics = %d, want 1", st.Panics)
	}
}

// TestResilienceUploadInternPanicIs500: a panic while interning an
// uploaded table, on the load's interning goroutine, reaches the
// request's own goroutine and becomes a 500; the daemon survives, and
// the same body is accepted once the fault is gone.
func TestResilienceUploadInternPanicIs500(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	_, ts := newTestServer(t, Config{})
	var csv strings.Builder
	csv.WriteString("title,length\n")
	for i := 0; i < 5000; i++ { // more than one batch of the CSV interner
		fmt.Fprintf(&csv, "song %d,%d\n", i%700, i)
	}
	body, err := json.Marshal(uploadRequest{
		Name:   "large",
		Target: dbSpec{Schema: "schema tgt\n  table songs(title string, length integer)\n", Tables: map[string]string{"songs": csv.String()}},
		Sources: []sourceSpec{{
			Name:            "src",
			dbSpec:          dbSpec{Schema: "schema src\n  table tracks(name string, ms integer)\n", Tables: map[string]string{"tracks": "name,ms\nHelp,138000\n"}},
			Correspondences: "tracks.name -> songs.title\n",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable("relational:intern", faultinject.Fault{Kind: faultinject.Panic})
	if resp, data := post(t, ts.URL+"/v1/scenarios", body, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("upload with the interner panicking: status %d: %s", resp.StatusCode, data)
	}
	var st statusResponse
	if _, status := get(t, ts.URL+"/v1/status"); json.Unmarshal(status, &st) != nil || st.Panics != 1 {
		t.Errorf("/v1/status panics = %d, want 1: %s", st.Panics, status)
	}
	faultinject.Reset()
	if resp, data := post(t, ts.URL+"/v1/scenarios", body, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload after Reset: status %d: %s", resp.StatusCode, data)
	}
}

func TestResilienceDegradedResultsAreNeverPersisted(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	cache, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	_, ts := newTestServer(t, Config{Cache: cache})
	uploadMusic(t, ts.URL, nil)

	// An expired deadline answers with the baseline fallback, and a
	// failed module with a degraded estimate.
	faultinject.Enable("core:detector:"+mapping.ModuleName,
		faultinject.Fault{Kind: faultinject.Delay, Delay: 500 * time.Millisecond, Times: 1})
	resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, `, "timeoutMs": 50`), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Degraded") != "1" {
		t.Fatalf("fallback estimate: status %d, header %q", resp.StatusCode, resp.Header.Get("X-Efes-Degraded"))
	}
	faultinject.Reset()
	faultinject.Enable("core:detector:"+mapping.ModuleName, faultinject.Fault{Kind: faultinject.Error, Times: 1})
	resp, _ = post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Degraded") != "1" {
		t.Fatalf("degraded estimate: status %d, header %q", resp.StatusCode, resp.Header.Get("X-Efes-Degraded"))
	}
	// The degraded answers did not poison the cache: the retry recomputes
	// cleanly (miss) and only then persists.
	resp, clean := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.Header.Get("X-Efes-Cache") != "miss" || resp.Header.Get("X-Efes-Degraded") != "" {
		t.Fatalf("retry: cache %q, degraded %q", resp.Header.Get("X-Efes-Cache"), resp.Header.Get("X-Efes-Degraded"))
	}
	resp, warm := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.Header.Get("X-Efes-Cache") != "hit" {
		t.Fatalf("third estimate not warm (%q)", resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(clean, warm) {
		t.Error("warm bytes differ from the clean recompute")
	}
	// No degraded answer and no compute filled the memo: the warm answer
	// came from the disk.
	if got := status(t, ts.URL).ResultMemoHits; got != 0 {
		t.Errorf("resultMemoHits = %d, want 0", got)
	}
}
