package valuefit

import (
	"runtime"
	"testing"

	"efes/internal/scenario"
)

// TestValueFitAllocBound bounds what one value-fit assessment allocates
// at LargeExampleConfig scale (30k songs). Each call profiles afresh on
// a private profiler. Rendering every songs.length value to profile it
// as a string costs about 100k mallocs and 4.7 MB per call; deriving
// that view from the integers' sorted runs, and serving same-type views
// from the raw profiles, costs about 26k mallocs and 1.7 MB.
func TestValueFitAllocBound(t *testing.T) {
	scn := scenario.MusicExample(scenario.LargeExampleConfig())
	m := New()
	if _, err := m.AssessComplexity(scn); err != nil { // builds the column vectors once
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := m.AssessComplexity(scn); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	mallocs := (after.Mallocs - before.Mallocs) / runs
	if bytes > 3e6 || mallocs > 50000 {
		t.Errorf("AssessComplexity(LargeExampleConfig) allocates %.2f MB in %d mallocs per call, want ≤ 3.0 MB and ≤ 50000 mallocs",
			bytes/1e6, mallocs)
	}
	t.Logf("%.2f MB, %d mallocs per call", bytes/1e6, mallocs)
}
