package efesd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"efes/internal/effort"
	"efes/internal/persist"
)

// FuzzEstimateRequest sends arbitrary bodies to /v1/estimate on one
// server (durable cache, 2 s default deadline, the small music example
// uploaded, the references for both qualities computed first). Every
// answer must be a 200, 400, 404 or 413, or a 500 with a JSON error for
// a fail-fast request; no request may panic; an undegraded 200 must be
// the reference of the quality asked for, and a degraded one a cache
// miss. Afterwards a plain request must still get the high-quality
// reference, so no body can poison the memo or the disk tier. Seeds in
// testdata/fuzz/FuzzEstimateRequest.
func FuzzEstimateRequest(f *testing.F) {
	cache, err := persist.Open(f.TempDir(), persist.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { cache.Close() })
	s, ts := newTestServer(f, Config{Cache: cache, RequestTimeout: 2 * time.Second})
	uploadMusic(f, ts.URL, nil)
	var ref [2][]byte // by effort.Quality
	for _, wire := range []string{"low", "high"} {
		q, _ := parseQuality(wire)
		resp, data := post(f, ts.URL+"/v1/estimate", estimateBody(musicName, `, "quality": "`+wire+`"`), nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Degraded") != "" {
			f.Fatalf("%s reference: status %d, degraded %q: %s", wire, resp.StatusCode, resp.Header.Get("X-Efes-Degraded"), data)
		}
		ref[q] = data
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		panics := s.panics.Load()
		resp, data := post(t, ts.URL+"/v1/estimate", body, nil)
		// The server decodes exactly what json.Unmarshal accepts.
		var req estimateRequest
		decoded := json.Unmarshal(body, &req) == nil
		switch resp.StatusCode {
		case http.StatusOK:
			q, err := parseQuality(req.Quality)
			switch {
			case !decoded || err != nil:
				t.Errorf("200 for a body the server should refuse: %q", body)
			case resp.Header.Get("X-Efes-Degraded") != "":
				if tier := resp.Header.Get("X-Efes-Cache"); tier != "miss" {
					t.Errorf("degraded answer with X-Efes-Cache %q", tier)
				}
			case !bytes.Equal(data, ref[q]):
				t.Errorf("undegraded answer differs from the %v reference:\n%s", q, data)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		case http.StatusInternalServerError:
			var e struct {
				Error string `json:"error"`
			}
			if !decoded || req.BestEffort == nil || *req.BestEffort || json.Unmarshal(data, &e) != nil || e.Error == "" {
				t.Errorf("500 outside a fail-fast detector failure: %s", data)
			}
		default:
			t.Errorf("status %d: %s", resp.StatusCode, data)
		}
		if got := s.panics.Load(); got != panics {
			t.Errorf("panics %d -> %d", panics, got)
		}
		resp, data = post(t, ts.URL+"/v1/estimate", estimateBody(musicName, ""), nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(data, ref[effort.HighQuality]) {
			t.Fatalf("after %q a plain estimate got status %d and other bytes:\n%s", body, resp.StatusCode, data)
		}
	})
}

// FuzzUploadRequest sends arbitrary bodies to /v1/scenarios on one
// server (at most 4 resident scenarios). Every answer must be a 201, 400
// or 413, and no request may panic; an accepted body uploaded again must
// get the same content hash. Seeds in testdata/fuzz/FuzzUploadRequest.
func FuzzUploadRequest(f *testing.F) {
	s, ts := newTestServer(f, Config{MaxScenarios: 4})
	f.Fuzz(func(t *testing.T, body []byte) {
		panics := s.panics.Load()
		resp, data := post(t, ts.URL+"/v1/scenarios", body, nil)
		switch resp.StatusCode {
		case http.StatusCreated:
			var first, again uploadResponse
			if err := json.Unmarshal(data, &first); err != nil {
				t.Fatalf("201 with %v: %s", err, data)
			}
			resp, data = post(t, ts.URL+"/v1/scenarios", body, nil)
			if resp.StatusCode != http.StatusCreated || json.Unmarshal(data, &again) != nil || again.Hash != first.Hash {
				t.Errorf("uploaded again: status %d, %s; want 201 with hash %s", resp.StatusCode, data, first.Hash)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Errorf("status %d: %s", resp.StatusCode, data)
		}
		if got := s.panics.Load(); got != panics {
			t.Errorf("panics %d -> %d", panics, got)
		}
	})
}
