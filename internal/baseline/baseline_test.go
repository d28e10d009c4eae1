package baseline

import (
	"math"
	"strings"
	"testing"

	"efes/internal/effort"
	"efes/internal/scenario"
)

func TestTable1Total(t *testing.T) {
	if got := HoursPerAttribute(); math.Abs(got-8.05) > 1e-9 {
		t.Errorf("hours per attribute = %v, want 8.05 (Table 1)", got)
	}
	if got := len(Table1()); got != 13 {
		t.Errorf("Table 1 rows = %d, want 13", got)
	}
}

func TestMappingShare(t *testing.T) {
	s := mappingShare()
	if s <= 0 || s >= 1 {
		t.Fatalf("mapping share = %v", s)
	}
	// Requirements(2.0) + HLD(0.1) + TD(0.5) + DM(1.0) = 3.6 of 8.05.
	if math.Abs(s-3.6/8.05) > 1e-9 {
		t.Errorf("mapping share = %v, want %v", s, 3.6/8.05)
	}
}

func TestEstimateScalesWithAttributes(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	c := New()
	est := c.Estimate(scn, effort.LowEffort)
	// The example source has 3+4+1+3 = 11 attributes.
	want := 11 * 8.05 * 60 * databaseFraction
	if got := est.Total(); math.Abs(got-want) > 1e-6 {
		t.Errorf("estimate = %v, want %v", got, want)
	}
	// Quality does not change the counting estimate.
	if high := c.Estimate(scn, effort.HighQuality).Total(); high != est.Total() {
		t.Error("baseline must be quality-insensitive")
	}
	// Both categories are populated.
	by := est.ByCategory()
	if by[effort.CategoryMapping] <= 0 || by[effort.CategoryCleaningStructure] <= 0 {
		t.Errorf("breakdown = %v", by)
	}
}

func TestSourceAttributes(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	if got := SourceAttributes(scn); got != 11 {
		t.Errorf("source attributes = %d, want 11", got)
	}
}

func TestCalibrate(t *testing.T) {
	c := New()
	// Estimates exactly 2x the measured values: the fitted scale is 0.5.
	scale := c.Calibrate([]float64{200, 400, 600}, []float64{100, 200, 300})
	if math.Abs(scale-0.5) > 1e-9 {
		t.Errorf("scale = %v, want 0.5", scale)
	}
	// Degenerate input leaves the scale unchanged.
	c2 := New()
	if got := c2.Calibrate(nil, nil); got != 1 {
		t.Errorf("empty calibration scale = %v", got)
	}
	c3 := New()
	if got := c3.Calibrate([]float64{0, -1}, []float64{10, 10}); got != 1 {
		t.Errorf("degenerate calibration scale = %v", got)
	}
}

func TestCalibrateMinimizesRelativeError(t *testing.T) {
	// The fitted scale must beat nearby scales on the squared relative
	// error it optimizes.
	est := []float64{120, 300, 80, 500}
	meas := []float64{100, 260, 95, 410}
	c := New()
	k := c.Calibrate(est, meas)
	sqErr := func(scale float64) float64 {
		s := 0.0
		for i := range est {
			d := (meas[i] - scale*est[i]) / meas[i]
			s += d * d
		}
		return s
	}
	best := sqErr(k)
	for _, delta := range []float64{-0.05, 0.05, -0.2, 0.2} {
		if sqErr(k+delta) < best-1e-12 {
			t.Errorf("scale %v is not optimal: %v beats it", k, k+delta)
		}
	}
}

func TestTable1String(t *testing.T) {
	s := Table1String()
	for _, want := range []string{"Requirements and Mapping", "2.00", "Total", "8.05"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 rendering missing %q:\n%s", want, s)
		}
	}
}
