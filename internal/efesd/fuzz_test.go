package efesd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"efes/internal/effort"
	"efes/internal/match"
	"efes/internal/persist"
	"efes/internal/relational"
	"efes/internal/scenario"
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

// FuzzProfileRequest sends arbitrary bodies to /v1/profile on one server
// (durable cache, the small music example uploaded, the profile of every
// column of the target and the source recorded first). Every answer must
// be a 200, 400, 404 or 413, and no request may panic; a 200 must carry
// the recorded bytes of the database, table and column json.Unmarshal
// decodes from the body. Afterwards a canonical request must still get
// its recorded bytes, so no body can poison the memo or the disk tier.
// Seeds in testdata/fuzz/FuzzProfileRequest.
func FuzzProfileRequest(f *testing.F) {
	cache, err := persist.Open(f.TempDir(), persist.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { cache.Close() })
	s, ts := newTestServer(f, Config{Cache: cache})
	uploadMusic(f, ts.URL, nil)
	type column struct{ db, table, column string }
	ref := make(map[column][]byte)
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	for _, d := range []struct {
		name string
		db   *relational.Database
	}{{"target", scn.Target}, {scn.Sources[0].Name, scn.Sources[0].DB}} {
		for _, t := range d.db.Schema.Tables() {
			for _, c := range t.Columns {
				col := column{d.name, t.Name, c.Name}
				body, _ := json.Marshal(profileRequest{Scenario: musicName, DB: col.db, Table: col.table, Column: col.column})
				resp, data := post(f, ts.URL+"/v1/profile", body, nil)
				if resp.StatusCode != http.StatusOK {
					f.Fatalf("%+v reference: status %d: %s", col, resp.StatusCode, data)
				}
				ref[col] = data
			}
		}
	}
	canonical := column{"target", "tracks", "title"}
	canonicalBody, _ := json.Marshal(profileRequest{Scenario: musicName, DB: canonical.db, Table: canonical.table, Column: canonical.column})

	f.Fuzz(func(t *testing.T, body []byte) {
		panics := s.panics.Load()
		resp, data := post(t, ts.URL+"/v1/profile", body, nil)
		// The server decodes exactly what json.Unmarshal accepts.
		var req profileRequest
		decoded := json.Unmarshal(body, &req) == nil
		switch resp.StatusCode {
		case http.StatusOK:
			col := column{req.DB, req.Table, req.Column}
			if col.db == "" {
				col.db = "target"
			}
			switch want, known := ref[col]; {
			case !decoded || req.Scenario != musicName || !known:
				t.Errorf("200 for a body the server should refuse: %q", body)
			case !bytes.Equal(data, want):
				t.Errorf("profile of %+v differs from its reference:\n%s", col, data)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Errorf("status %d: %s", resp.StatusCode, data)
		}
		if got := s.panics.Load(); got != panics {
			t.Errorf("panics %d -> %d", panics, got)
		}
		resp, data = post(t, ts.URL+"/v1/profile", canonicalBody, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(data, ref[canonical]) {
			t.Fatalf("after %q a canonical profile got status %d and other bytes:\n%s", body, resp.StatusCode, data)
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

// FuzzMatchRequest sends arbitrary bodies to /v1/match on one server
// (the small music example uploaded). Every answer must be a 200, 400,
// 404 or 413, and no request may panic; a 200 must carry the
// correspondences that matching the source the body names against the
// target finds in process. Afterwards a canonical request must still
// get its recorded bytes. Seeds in testdata/fuzz/FuzzMatchRequest.
func FuzzMatchRequest(f *testing.F) {
	s, ts := newTestServer(f, Config{})
	uploadMusic(f, ts.URL, nil)
	type matchResponse struct {
		Count int    `json:"count"`
		Text  string `json:"text"`
	}
	ref := make(map[string]matchResponse)
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	for _, src := range scn.Sources {
		set := match.NewMatcher().Match(src.DB, scn.Target)
		var text strings.Builder
		if err := set.WriteText(&text); err != nil {
			f.Fatal(err)
		}
		ref[src.Name] = matchResponse{len(set.All), text.String()}
	}
	canonicalBody, _ := json.Marshal(matchRequest{Scenario: musicName, Source: scn.Sources[0].Name})
	resp, canonical := post(f, ts.URL+"/v1/match", canonicalBody, nil)
	if resp.StatusCode != http.StatusOK {
		f.Fatalf("canonical match: status %d: %s", resp.StatusCode, canonical)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		panics := s.panics.Load()
		resp, data := post(t, ts.URL+"/v1/match", body, nil)
		// The server decodes exactly what json.Unmarshal accepts.
		var req matchRequest
		decoded := json.Unmarshal(body, &req) == nil
		switch resp.StatusCode {
		case http.StatusOK:
			var got matchResponse
			switch want, known := ref[req.Source]; {
			case !decoded || req.Scenario != musicName || !known:
				t.Errorf("200 for a body the server should refuse: %q", body)
			case json.Unmarshal(data, &got) != nil || got != want:
				t.Errorf("match of %q differs from the in-process match:\n%s", req.Source, data)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Errorf("status %d: %s", resp.StatusCode, data)
		}
		if got := s.panics.Load(); got != panics {
			t.Errorf("panics %d -> %d", panics, got)
		}
		resp, data = post(t, ts.URL+"/v1/match", canonicalBody, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(data, canonical) {
			t.Fatalf("after %q a canonical match got status %d and other bytes:\n%s", body, resp.StatusCode, data)
		}
	})
}
