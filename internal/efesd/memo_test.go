package efesd

// The result memo tier: each resident scenario keeps, per quality, the
// bytes a successful persist.Cache.Get returned, so a repeat estimate is
// answered from memory. These tests pin the fill rule (only verified
// disk reads fill a slot), the tier order (memo, disk, compute), the
// slots' lifetime (they go with their scenario entry) and race-freedom
// under concurrent hits and re-uploads.

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"testing"
)

// estimateTier posts a high-quality estimate and reports its cache
// header, the memo-hit counter afterwards and the body.
func estimateTier(t *testing.T, url, extra string) (string, int64, []byte) {
	t.Helper()
	resp, data := post(t, url+"/v1/estimate", estimateBody(musicName, extra), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate%s: status %d: %s", extra, resp.StatusCode, data)
	}
	return resp.Header.Get("X-Efes-Cache"), status(t, url).ResultMemoHits, data
}

func TestEstimateMemoTier(t *testing.T) {
	s, url := cacheServer(t)

	tier, memo, cold := estimateTier(t, url, "")
	if tier != "miss" || memo != 0 {
		t.Fatalf("cold estimate: cache %q, resultMemoHits %d", tier, memo)
	}
	// A noCache request computes and serves; neither it nor the cold
	// compute fills the memo.
	if tier, memo, data := estimateTier(t, url, `, "noCache": true`); tier != "miss" || memo != 0 || !bytes.Equal(cold, data) {
		t.Fatalf("noCache estimate: cache %q, resultMemoHits %d, identical %v", tier, memo, bytes.Equal(cold, data))
	}

	// The first repeat reads the disk and fills the slot; the second is
	// served from the slot without a Get.
	tier, memo, disk := estimateTier(t, url, "")
	if tier != "hit" || memo != 0 || !bytes.Equal(cold, disk) {
		t.Fatalf("disk hit: cache %q, resultMemoHits %d, identical %v", tier, memo, bytes.Equal(cold, disk))
	}
	gets := s.cache.Stats().Hits
	tier, memo, mem := estimateTier(t, url, "")
	if tier != "hit" || memo != 1 || !bytes.Equal(cold, mem) {
		t.Fatalf("memo hit: cache %q, resultMemoHits %d, identical %v", tier, memo, bytes.Equal(cold, mem))
	}
	if got := s.cache.Stats().Hits; got != gets {
		t.Errorf("a memo hit read the disk: cache hits %d -> %d", gets, got)
	}
	if st := status(t, url); st.ResultHits != 2 || st.ResultMisses != 2 {
		t.Errorf("resultHits %d, resultMisses %d; want 2 and 2", st.ResultHits, st.ResultMisses)
	}

	// Each quality has its own slot: the high slot never answers low.
	if tier, _, low := estimateTier(t, url, `, "quality": "low"`); tier != "miss" || bytes.Equal(cold, low) {
		t.Errorf("first low estimate: cache %q, equal to the high answer %v", tier, bytes.Equal(cold, low))
	}

	// Re-uploading the name replaces the entry and its slots: the next
	// repeat comes from the disk again, the one after from the new slot.
	uploadMusic(t, url, nil)
	for want, what := range []string{"disk", "memo"} {
		tier, memo, data := estimateTier(t, url, "")
		if tier != "hit" || memo != int64(want)+1 || !bytes.Equal(cold, data) {
			t.Errorf("%s hit after re-upload: cache %q, resultMemoHits %d (want %d), identical %v",
				what, tier, memo, want+1, bytes.Equal(cold, data))
		}
	}
}

// TestEstimateMemoConcurrentReupload drives memo and disk hits at both
// qualities from several clients while the scenario is re-uploaded
// under the same name, which swaps the entry (and its slots) under them.
// Every answer must be a byte-identical hit; run it under -race.
func TestEstimateMemoConcurrentReupload(t *testing.T) {
	_, url := cacheServer(t)
	var want [2][]byte // by effort.Quality: low, high
	for q, extra := range []string{`, "quality": "low"`, ""} {
		resp, data := post(t, url+"/v1/estimate", estimateBody(musicName, extra), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold estimate%s: status %d: %s", extra, resp.StatusCode, data)
		}
		want[q] = data
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := (c + i) % 2
				extra := ""
				if q == 0 {
					extra = `, "quality": "low"`
				}
				resp, err := http.Post(url+"/v1/estimate", "application/json", bytes.NewReader(estimateBody(musicName, extra)))
				if err != nil {
					t.Error(err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Efes-Cache") != "hit" || !bytes.Equal(want[q], data) {
					t.Errorf("client %d request %d: status %d, cache %q, identical %v, read error %v",
						c, i, resp.StatusCode, resp.Header.Get("X-Efes-Cache"), bytes.Equal(want[q], data), err)
					return
				}
			}
		}(c)
	}
	for i := 0; i < 5; i++ {
		uploadMusic(t, url, nil)
	}
	wg.Wait()

	st := status(t, url)
	if st.ResultHits != 100 || st.ResultMemoHits > st.ResultHits || st.ResultMisses != 2 {
		t.Errorf("resultHits %d (memo %d), resultMisses %d; want 100 hits, at most all from memo, 2 misses",
			st.ResultHits, st.ResultMemoHits, st.ResultMisses)
	}
}
