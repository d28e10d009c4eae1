package efesd

// White-box HTTP tests for the daemon: upload/estimate round trips,
// determinism across worker counts, admission control, drain, tenant
// isolation, panic isolation, and the in-process warm-restart story
// (the cross-process SIGKILL variant lives in cmd/efesd).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"efes/internal/core"
	"efes/internal/match"
	"efes/internal/persist"
	"efes/internal/scenario"
)

// musicName is the scenario.MusicExample fixture's name.
const musicName = "music-example"

// renderUpload converts an in-memory scenario into the daemon's upload
// JSON (schema text, CSV table bodies, correspondence text).
func renderUpload(t testing.TB, scn *core.Scenario) []byte {
	t.Helper()
	renderDB := func(db interface {
		WriteCSV(string, io.Writer) error
	}, schema string, tables []string) dbSpec {
		spec := dbSpec{Schema: schema, Tables: make(map[string]string, len(tables))}
		for _, name := range tables {
			var buf bytes.Buffer
			if err := db.WriteCSV(name, &buf); err != nil {
				t.Fatal(err)
			}
			spec.Tables[name] = buf.String()
		}
		return spec
	}
	req := uploadRequest{Name: scn.Name}
	var names []string
	for _, tb := range scn.Target.Schema.Tables() {
		names = append(names, tb.Name)
	}
	req.Target = renderDB(scn.Target, scn.Target.Schema.String(), names)
	for _, src := range scn.Sources {
		names = names[:0]
		for _, tb := range src.DB.Schema.Tables() {
			names = append(names, tb.Name)
		}
		var corr bytes.Buffer
		if err := src.Correspondences.WriteText(&corr); err != nil {
			t.Fatal(err)
		}
		req.Sources = append(req.Sources, sourceSpec{
			Name:            src.Name,
			dbSpec:          renderDB(src.DB, src.DB.Schema.String(), names),
			Correspondences: corr.String(),
		})
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns the response with its bytes read.
func post(t testing.TB, url string, body []byte, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// uploadMusic uploads the music example and returns its content hash.
func uploadMusic(t testing.TB, baseURL string, header map[string]string) string {
	t.Helper()
	body := renderUpload(t, scenario.MusicExample(scenario.SmallExampleConfig()))
	resp, data := post(t, baseURL+"/v1/scenarios", body, header)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d: %s", resp.StatusCode, data)
	}
	var ur uploadResponse
	if err := json.Unmarshal(data, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Hash == "" || ur.Sources == 0 {
		t.Fatalf("upload response = %+v", ur)
	}
	return ur.Hash
}

func estimateBody(scenarioName string, extra string) []byte {
	b := fmt.Sprintf(`{"scenario": %q%s}`, scenarioName, extra)
	return []byte(b)
}

func TestUploadEstimateRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)

	resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status = %d: %s", resp.StatusCode, data)
	}
	var export core.ResultExport
	if err := json.Unmarshal(data, &export); err != nil {
		t.Fatal(err)
	}
	if export.Scenario != musicName || export.TotalMinutes <= 0 || export.Degraded {
		t.Errorf("export = scenario %q, total %v, degraded %v", export.Scenario, export.TotalMinutes, export.Degraded)
	}
	if resp.Header.Get("X-Efes-Cache") != "miss" {
		t.Errorf("cache header = %q, want miss", resp.Header.Get("X-Efes-Cache"))
	}

	// Low quality is a distinct estimate.
	respLow, dataLow := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, `, "quality": "low"`), nil)
	if respLow.StatusCode != http.StatusOK {
		t.Fatalf("low estimate status = %d: %s", respLow.StatusCode, dataLow)
	}
	if bytes.Equal(data, dataLow) {
		t.Error("low and high quality estimates are identical")
	}

	// Unknown scenario and bad quality are client errors.
	if resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody("nope", ""), nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown scenario status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, `, "quality": "best"`), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad quality status = %d, want 400", resp.StatusCode)
	}
}

func TestEstimateByteStableAcrossWorkerCounts(t *testing.T) {
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Config{Workers: workers})
		uploadMusic(t, ts.URL, nil)
		resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d status = %d: %s", workers, resp.StatusCode, data)
		}
		bodies = append(bodies, data)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("estimate bytes differ across worker counts")
	}
}

func TestScenarioListAndTenantIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)
	uploadMusic(t, ts.URL, map[string]string{"X-Efes-Tenant": "acme"})

	resp, data := get(t, ts.URL+"/v1/scenarios")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	var listing struct {
		Scenarios []scenarioInfo `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Scenarios) != 1 || listing.Scenarios[0].Name != musicName {
		t.Errorf("default tenant listing = %+v", listing.Scenarios)
	}

	// The acme tenant's upload is invisible to the default tenant and
	// vice versa; estimating across tenants is a 404.
	resp, _ = post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), map[string]string{"X-Efes-Tenant": "ghost"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-tenant estimate status = %d, want 404", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), map[string]string{"X-Efes-Tenant": "acme"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("acme tenant estimate status = %d, want 200", resp.StatusCode)
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)

	resp, data := post(t, ts.URL+"/v1/profile",
		[]byte(`{"scenario": "music-example", "db": "target", "table": "tracks", "column": "title"}`), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status = %d: %s", resp.StatusCode, data)
	}
	var stats struct {
		Table  string `json:"Table"`
		Column string `json:"Column"`
		Rows   int    `json:"Rows"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Table != "tracks" || stats.Column != "title" || stats.Rows == 0 {
		t.Errorf("stats = %+v: %s", stats, data)
	}

	if resp, _ := post(t, ts.URL+"/v1/profile",
		[]byte(`{"scenario": "music-example", "db": "nope", "table": "tracks", "column": "title"}`), nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown db status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/profile",
		[]byte(`{"scenario": "music-example", "db": "target", "table": "tracks", "column": "nope"}`), nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown column status = %d, want 400", resp.StatusCode)
	}

	// Bodies are not checked for unknown fields, so a client that still
	// names a profiling mode gets the one (exact) profile.
	resp, moded := post(t, ts.URL+"/v1/profile",
		[]byte(`{"scenario": "music-example", "db": "target", "table": "tracks", "column": "title", "mode": "approx"}`), nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(moded, data) {
		t.Errorf("profile naming a mode: status %d, body %s; want 200 and %s", resp.StatusCode, moded, data)
	}

	// profileExact counts the profiles served, not the refused requests.
	_, st := get(t, ts.URL+"/v1/status")
	var counters struct {
		ProfileExact int64 `json:"profileExact"`
	}
	if err := json.Unmarshal(st, &counters); err != nil {
		t.Fatal(err)
	}
	if counters.ProfileExact != 2 {
		t.Errorf("profileExact = %d, want 2", counters.ProfileExact)
	}
}

func TestMatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)

	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	srcName := scn.Sources[0].Name
	resp, data := post(t, ts.URL+"/v1/match",
		[]byte(fmt.Sprintf(`{"scenario": "music-example", "source": %q}`, srcName)), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status = %d: %s", resp.StatusCode, data)
	}
	var mr struct {
		Count int    `json:"count"`
		Text  string `json:"text"`
	}
	if err := json.Unmarshal(data, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Count == 0 || !strings.Contains(mr.Text, "->") {
		t.Errorf("match response = %+v", mr)
	}
	if resp, _ := post(t, ts.URL+"/v1/match", []byte(`{"scenario": "music-example", "source": "target"}`), nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("matching the target status = %d, want 404", resp.StatusCode)
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2})
	uploadMusic(t, ts.URL, nil)

	// Exhaust the admission budget directly (deterministic — no racing
	// slow requests needed), then observe the fast 429.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d: %s", resp.StatusCode, data)
	}
	// Probes bypass admission: the saturated instance stays observable.
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz under saturation = %d, want 200", resp.StatusCode)
	}
	resp, data = get(t, ts.URL+"/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status under saturation = %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
	<-s.sem
	<-s.sem
	if resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil); resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain status = %d, want 200", resp.StatusCode)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)
	s.StartDrain()
	if resp, _ := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining estimate status = %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	resp, data := get(t, ts.URL+"/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining status endpoint = %d, want 200", resp.StatusCode)
	}
	var st statusResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Error("status does not report draining")
	}
}

func TestWarmRestartInProcess(t *testing.T) {
	dir := t.TempDir()
	openCache := func() *persist.Cache {
		c, err := persist.Open(dir, persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c1 := openCache()
	_, ts1 := newTestServer(t, Config{Cache: c1})
	uploadMusic(t, ts1.URL, nil)
	resp, cold := post(t, ts1.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Cache") != "miss" {
		t.Fatalf("cold estimate: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Efes-Cache"))
	}
	resp, warm := post(t, ts1.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.Header.Get("X-Efes-Cache") != "hit" {
		t.Fatalf("second estimate not served from cache (%q)", resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cached estimate differs from computed one")
	}
	ts1.Close()
	c1.Close()

	// The "restarted" daemon: fresh server, fresh profiler memo, same
	// cache directory. The same upload content-addresses to the same
	// result entry — served byte-identically with zero recomputation.
	c2 := openCache()
	defer c2.Close()
	s2, ts2 := newTestServer(t, Config{Cache: c2})
	uploadMusic(t, ts2.URL, nil)
	resp, rewarm := post(t, ts2.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
	if resp.Header.Get("X-Efes-Cache") != "hit" {
		t.Fatalf("post-restart estimate not warm (%q)", resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(cold, rewarm) {
		t.Fatal("post-restart estimate not byte-identical")
	}
	if _, computes := s2.Profiler().DiskCounters(); computes != 0 {
		t.Errorf("restart recomputed %d profiles for a warm result", computes)
	}

	// Bypassing the result cache still profiles through the durable
	// stats store: the full pipeline re-runs without recomputing a
	// single column profile, and reproduces the bytes exactly.
	resp, recomputed := post(t, ts2.URL+"/v1/estimate", estimateBody(musicName, `, "noCache": true`), nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Cache") != "miss" {
		t.Fatalf("noCache estimate: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(cold, recomputed) {
		t.Error("noCache estimate not byte-identical to the cold run")
	}
	diskHits, computes := s2.Profiler().DiskCounters()
	if diskHits == 0 || computes != 0 {
		t.Errorf("noCache profiling: %d disk hits / %d computes, want warm disk, zero computes", diskHits, computes)
	}
}

// TestBodyLimits: an upload over the configured limit and an estimate
// body over the fixed 1 MiB limit are refused with a JSON 413 and
// counted in /v1/status; a normal upload and estimate then succeed.
func TestBodyLimits(t *testing.T) {
	upload := renderUpload(t, scenario.MusicExample(scenario.SmallExampleConfig()))
	limit := len(upload)
	_, ts := newTestServer(t, Config{MaxUploadBytes: int64(limit)})

	for _, c := range []struct {
		route string
		body  []byte
	}{
		{"/v1/scenarios", []byte(fmt.Sprintf(`{"name": %q}`, strings.Repeat("x", limit)))},
		{"/v1/estimate", estimateBody(strings.Repeat("x", maxRequestBytes), "")},
	} {
		resp, data := post(t, ts.URL+c.route, c.body, nil)
		var body map[string]string
		if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(data, &body) != nil || body["error"] == "" {
			t.Errorf("%s with a %d-byte body: status %d, body %s; want 413 with a JSON error",
				c.route, len(c.body), resp.StatusCode, data)
		}
	}
	if got := status(t, ts.URL).TooLarge; got != 2 {
		t.Errorf("status tooLarge = %d, want 2", got)
	}

	uploadMusic(t, ts.URL, nil) // exactly the limit
	if resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil); resp.StatusCode != http.StatusOK {
		t.Errorf("estimate after refusals: status %d: %s", resp.StatusCode, data)
	}
	if got := status(t, ts.URL).TooLarge; got != 2 {
		t.Errorf("status tooLarge after normal requests = %d, want still 2", got)
	}
}

// TestRequestBodyTrailingData: every POST route decodes exactly one JSON
// value. Whitespace may follow it; anything else, garbage or a second
// object, is a 400 instead of being silently dropped.
func TestRequestBodyTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	upload, srcName := renderUpload(t, scn), scn.Sources[0].Name
	for _, c := range []struct {
		route string
		body  string
		ok    int
	}{
		{"/v1/scenarios", string(upload), http.StatusCreated},
		{"/v1/estimate", `{"scenario": "music-example"}`, http.StatusOK},
		{"/v1/profile", `{"scenario": "music-example", "db": "target", "table": "tracks", "column": "title"}`, http.StatusOK},
		{"/v1/match", fmt.Sprintf(`{"scenario": "music-example", "source": %q}`, srcName), http.StatusOK},
	} {
		if resp, data := post(t, ts.URL+c.route, []byte(c.body+" \n\t\r\n"), nil); resp.StatusCode != c.ok {
			t.Errorf("%s with trailing whitespace: status %d, want %d: %s", c.route, resp.StatusCode, c.ok, data)
		}
		for _, trailer := range []string{" trailing garbage", `{"scenario": "nope"}`, "}", "null"} {
			resp, data := post(t, ts.URL+c.route, []byte(c.body+trailer), nil)
			var e map[string]string
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &e) != nil || !strings.HasPrefix(e["error"], "decode request: ") {
				t.Errorf("%s followed by %q: status %d, body %s; want a 400 decode error", c.route, trailer, resp.StatusCode, data)
			}
		}
	}
}

// TestUploadDiscoverAddsToExplicit: with explicit correspondences and
// "discover": true, the matcher's pairs that the explicit list already
// names are dropped, not refused as duplicates, and the estimate equals
// the one for the merged list uploaded explicitly.
func TestUploadDiscoverAddsToExplicit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	body := renderUpload(t, scn)
	var discover, merged uploadRequest
	if json.Unmarshal(body, &discover) != nil || json.Unmarshal(body, &merged) != nil {
		t.Fatal("cannot decode the rendered upload")
	}
	// The merged list: every explicit line, then each discovered pair no
	// explicit line names.
	overlap := 0
	for i, src := range scn.Sources {
		discover.Sources[i].Discover = true
		explicit := map[string]bool{}
		for _, c := range src.Correspondences.All {
			explicit[c.String()] = true
		}
		for _, c := range match.NewMatcher().Match(src.DB, scn.Target).All {
			if explicit[c.String()] {
				overlap++
			} else {
				merged.Sources[i].Correspondences += c.String() + "\n"
			}
		}
	}
	if overlap == 0 {
		t.Fatal("the matcher rediscovers no explicit pair; the test needs an overlap")
	}

	var estimates [2][]byte
	var counts [2]int
	for i, req := range []uploadRequest{discover, merged} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hdr := map[string]string{"X-Efes-Tenant": fmt.Sprint(i)}
		resp, data := post(t, ts.URL+"/v1/scenarios", body, hdr)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %d: status %d: %s", i, resp.StatusCode, data)
		}
		var ur uploadResponse
		if err := json.Unmarshal(data, &ur); err != nil {
			t.Fatal(err)
		}
		counts[i] = ur.Correspondences
		resp, estimates[i] = post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("estimate %d: status %d: %s", i, resp.StatusCode, estimates[i])
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("correspondences: %d with discover, %d merged explicitly", counts[0], counts[1])
	}
	if !bytes.Equal(estimates[0], estimates[1]) {
		t.Error("the discover upload's estimate differs from the merged list's")
	}
}

// TestUploadRefusesTargetSourceName: the routes resolve "" and "target"
// to a scenario's target, so a source by either name could never be
// matched or profiled. The upload is refused with a 400 that names the
// source, and no scenario is registered.
func TestUploadRefusesTargetSourceName(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var req uploadRequest
	if err := json.Unmarshal(renderUpload(t, scenario.MusicExample(scenario.SmallExampleConfig())), &req); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "target"} {
		req.Sources[0].Name = name
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := post(t, ts.URL+"/v1/scenarios", body, nil)
		var e map[string]string
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &e) != nil ||
			!strings.HasPrefix(e["error"], fmt.Sprintf("source %q: ", name)) {
			t.Errorf("source %q: status %d: %s; want 400 naming the source", name, resp.StatusCode, data)
		}
	}
	var list struct{ Scenarios []scenarioInfo }
	if resp, data := get(t, ts.URL+"/v1/scenarios"); resp.StatusCode != http.StatusOK || json.Unmarshal(data, &list) != nil || len(list.Scenarios) != 0 {
		t.Errorf("scenarios after refused uploads: status %d: %s", resp.StatusCode, data)
	}
}

// TestNegativeRetriesRefused: a negative retry budget would run no
// detector attempt and price an empty result as if it were clean, so a
// request asking for one is a 400 and a server configured with one is
// not built.
func TestNegativeRetriesRefused(t *testing.T) {
	if _, err := New(Config{Resilience: Resilience{Retries: -1}}); err == nil {
		t.Error("New accepted Retries -1")
	}
	_, ts := newTestServer(t, Config{})
	uploadMusic(t, ts.URL, nil)
	for _, extra := range []string{`, "retries": -1`, `, "retries": -1, "noCache": true`} {
		if resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, extra), nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("estimate%s: status %d, want 400: %.200s", extra, resp.StatusCode, data)
		}
	}
	if resp, data := post(t, ts.URL+"/v1/estimate", estimateBody(musicName, `, "retries": 0`), nil); resp.StatusCode != http.StatusOK {
		t.Errorf("retries 0: status %d: %s", resp.StatusCode, data)
	}
}
