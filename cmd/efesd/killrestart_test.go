package main

// The crash-safety acceptance test: a real efesd process is killed with
// SIGKILL mid-workload, restarted over the same cache directory, and
// must serve the repeated estimate warm — no reprofiling, hit counter
// incremented, byte-identical JSON. The child process is this test
// binary re-exec'd with EFESD_CHILD=1 (TestMain routes straight into
// main), so the test exercises the exact production entrypoint,
// including the flock that the kernel must release on SIGKILL.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"efes/internal/core"
	"efes/internal/scenario"
)

func TestMain(m *testing.M) {
	if os.Getenv("EFESD_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// startChild launches efesd on a free port over dir and waits for the
// ready line. The returned base URL points at the child; extra flags are
// appended to the default set.
func startChild(t *testing.T, dir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-cache-dir", dir, "-request-timeout", "60s"}, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EFESD_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	deadline := time.After(10 * time.Second)
	ready := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "efesd: listening on "); ok {
				ready <- addr
				break
			}
		}
	}()
	select {
	case addr := <-ready:
		// Keep draining stdout so the child never blocks on the pipe.
		go io.Copy(io.Discard, stdout)
		return cmd, "http://" + addr
	case <-deadline:
		cmd.Process.Kill()
		t.Fatal("efesd child did not print the ready line")
		return nil, ""
	}
}

// musicUpload renders the music-example scenario as the daemon's upload
// JSON.
func musicUpload(t *testing.T) []byte {
	t.Helper()
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	renderDB := func(db interface {
		WriteCSV(string, io.Writer) error
	}, schemaText string, tables []string) map[string]any {
		bodies := make(map[string]string, len(tables))
		for _, name := range tables {
			var buf bytes.Buffer
			if err := db.WriteCSV(name, &buf); err != nil {
				t.Fatal(err)
			}
			bodies[name] = buf.String()
		}
		return map[string]any{"schema": schemaText, "tables": bodies}
	}
	names := func(s *core.Scenario, src int) []string {
		db := s.Target
		if src >= 0 {
			db = s.Sources[src].DB
		}
		var out []string
		for _, tb := range db.Schema.Tables() {
			out = append(out, tb.Name)
		}
		return out
	}
	req := map[string]any{
		"name":   scn.Name,
		"target": renderDB(scn.Target, scn.Target.Schema.String(), names(scn, -1)),
	}
	var sources []map[string]any
	for i, src := range scn.Sources {
		var corr bytes.Buffer
		if err := src.Correspondences.WriteText(&corr); err != nil {
			t.Fatal(err)
		}
		spec := renderDB(src.DB, src.DB.Schema.String(), names(scn, i))
		spec["name"] = src.Name
		spec["correspondences"] = corr.String()
		sources = append(sources, spec)
	}
	req["sources"] = sources
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

func upload(t *testing.T, base string, body []byte) {
	t.Helper()
	resp, data := post(t, base+"/v1/scenarios", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d: %s", resp.StatusCode, data)
	}
}

const estimateReq = `{"scenario": "music-example"}`

func TestKillRestartWarmCache(t *testing.T) {
	dir := t.TempDir()
	uploadBody := musicUpload(t)

	// Phase 1: cold daemon — compute once, let it persist.
	child, base := startChild(t, dir)
	upload(t, base, uploadBody)
	resp, cold := post(t, base+"/v1/estimate", []byte(estimateReq))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Cache") != "miss" {
		t.Fatalf("cold estimate: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Efes-Cache"))
	}

	// Phase 2: SIGKILL mid-workload. A few uncached estimates keep the
	// daemon busy computing and writing while it dies; their failures
	// are expected and ignored.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := http.Post(base+"/v1/estimate", "application/json",
				strings.NewReader(`{"scenario": "music-example", "noCache": true}`))
			if err == nil {
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	child.Wait() // reaps the child; a kill error status is expected

	// Phase 3: restart over the same directory. The kernel released the
	// SIGKILLed process's flock, so Open must succeed; the repeated
	// estimate must be served from disk without recomputing anything.
	child2, base2 := startChild(t, dir)
	defer func() {
		child2.Process.Kill()
		child2.Wait()
	}()
	upload(t, base2, uploadBody)
	resp, warm := post(t, base2+"/v1/estimate", []byte(estimateReq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm estimate status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Efes-Cache") != "hit" {
		t.Errorf("post-restart estimate not served from disk (cache %q)", resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(cold, warm) {
		t.Error("post-restart estimate not byte-identical to the pre-kill answer")
	}

	var st struct {
		ResultHits      int64 `json:"resultHits"`
		ResultMemoHits  int64 `json:"resultMemoHits"`
		ProfileComputes int64 `json:"profileComputes"`
		ProfileDiskHits int64 `json:"profileDiskHits"`
	}
	getStatus := func() {
		t.Helper()
		resp, err := http.Get(base2 + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	getStatus()
	if st.ResultHits != 1 || st.ResultMemoHits != 0 {
		t.Errorf("result hits = %d (%d from memory), want 1 from disk", st.ResultHits, st.ResultMemoHits)
	}
	if st.ProfileComputes != 0 {
		t.Errorf("restart recomputed %d profiles for a warm answer", st.ProfileComputes)
	}

	// The disk hit filled the scenario's memo slot: the next repeat is
	// answered from memory, with the same bytes.
	resp, again := post(t, base2+"/v1/estimate", []byte(estimateReq))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Cache") != "hit" {
		t.Errorf("second post-restart estimate: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(cold, again) {
		t.Error("memo-served estimate not byte-identical to the pre-kill answer")
	}
	getStatus()
	if st.ResultHits != 2 || st.ResultMemoHits != 1 {
		t.Errorf("result hits = %d (%d from memory), want 2 with 1 from memory", st.ResultHits, st.ResultMemoHits)
	}

	// Even bypassing the result cache, the full pipeline re-runs warm:
	// every column profile comes from the durable stats store and the
	// bytes still match exactly.
	resp, recomputed := post(t, base2+"/v1/estimate",
		[]byte(`{"scenario": "music-example", "noCache": true}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("noCache estimate status = %d", resp.StatusCode)
	}
	if !bytes.Equal(cold, recomputed) {
		t.Error("noCache estimate after restart not byte-identical")
	}
	getStatus()
	if st.ProfileComputes != 0 || st.ProfileDiskHits == 0 {
		t.Errorf("noCache profiling: %d computes / %d disk hits, want 0 computes, warm disk", st.ProfileComputes, st.ProfileDiskHits)
	}
}

// TestEvictionSmoke covers the scenario-lifetime flags end to end: a
// real efesd with a short -scenario-ttl expires an idle scenario, counts
// the eviction in /v1/status, answers 404 for the expired name, and
// serves a clean re-upload — warm, because the durable caches are
// content addressed.
func TestEvictionSmoke(t *testing.T) {
	dir := t.TempDir()
	child, base := startChild(t, dir, "-scenario-ttl", "300ms")
	defer func() {
		child.Process.Kill()
		child.Wait()
	}()
	uploadBody := musicUpload(t)
	upload(t, base, uploadBody)
	resp, cold := post(t, base+"/v1/estimate", []byte(estimateReq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold estimate status = %d", resp.StatusCode)
	}

	// Sit idle past the TTL; the next estimate finds the scenario gone.
	time.Sleep(time.Second)
	if resp, _ := post(t, base+"/v1/estimate", []byte(estimateReq)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-TTL estimate status = %d, want 404", resp.StatusCode)
	}
	var st struct {
		Scenarios  int   `json:"scenarios"`
		EvictedLRU int64 `json:"scenariosEvictedLRU"`
		EvictedTTL int64 `json:"scenariosEvictedTTL"`
		ResultHits int64 `json:"resultHits"`
	}
	getStatus := func() {
		t.Helper()
		resp, err := http.Get(base + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	getStatus()
	if st.EvictedTTL != 1 || st.EvictedLRU != 0 {
		t.Errorf("evictions = %d TTL / %d LRU, want 1 / 0", st.EvictedTTL, st.EvictedLRU)
	}
	if st.Scenarios != 0 {
		t.Errorf("resident scenarios = %d, want 0", st.Scenarios)
	}

	// Re-upload and estimate again: same content, warm answer.
	upload(t, base, uploadBody)
	resp, warm := post(t, base+"/v1/estimate", []byte(estimateReq))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload estimate status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Efes-Cache") != "hit" {
		t.Errorf("re-upload estimate cache = %q, want hit", resp.Header.Get("X-Efes-Cache"))
	}
	if !bytes.Equal(cold, warm) {
		t.Error("re-upload estimate not byte-identical to the pre-eviction answer")
	}
	getStatus()
	if st.ResultHits == 0 {
		t.Error("re-upload estimate did not hit the durable result cache")
	}
}

// TestGracefulDrain covers the SIGTERM path: the daemon announces the
// drain, refuses new work with 503, and exits cleanly.
func TestGracefulDrain(t *testing.T) {
	child, base := startChild(t, t.TempDir())
	upload(t, base, musicUpload(t))
	if err := child.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	// Signal delivery races with our probes: requests admitted before
	// the handler flips the drain flag still answer 200. Keep probing
	// until the drain engages (503) or the listener closes (connection
	// error); anything else is a failure.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/estimate", "application/json", strings.NewReader(estimateReq))
		if err != nil {
			break // listener already closed
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusOK {
			t.Errorf("estimate during drain = %d, want 200 (pre-drain) or 503", code)
			break
		}
		if time.Now().After(deadline) {
			t.Error("drain never engaged: estimates still answer 200")
			break
		}
	}
	done := make(chan error, 1)
	go func() { done <- child.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drained daemon exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		child.Process.Kill()
		t.Fatal("daemon did not exit after SIGTERM")
	}
}
