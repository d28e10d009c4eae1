package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"efes/internal/baseline"
	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/fanout"
	"efes/internal/faultinject"
	"efes/internal/mapping"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// DefaultSeed makes every experiment run reproducible.
const DefaultSeed = 2015

// ScenarioSpec names one evaluation scenario and knows how to build it.
type ScenarioSpec struct {
	// Name is the figure label, e.g. "s1-s2".
	Name string
	// Build constructs the scenario.
	Build func(seed int64) *core.Scenario
}

// Domain is one of the two case studies.
type Domain struct {
	// Name is "Bibliographic" or "Music".
	Name string
	// Scenarios are the four evaluation pairs of Figures 6/7.
	Scenarios []ScenarioSpec
}

// BibliographicDomain returns the Amalgam-like case study (Figure 6).
func BibliographicDomain() Domain {
	pair := func(src, tgt string) ScenarioSpec {
		return ScenarioSpec{Name: src + "-" + tgt, Build: func(seed int64) *core.Scenario {
			return scenario.MustBibliographicScenario(src, tgt, seed)
		}}
	}
	return Domain{Name: "Bibliographic", Scenarios: []ScenarioSpec{
		pair("s1", "s2"), pair("s1", "s3"), pair("s3", "s4"), pair("s4", "s4"),
	}}
}

// MusicDomain returns the discographic case study (Figure 7).
func MusicDomain() Domain {
	pair := func(src, tgt string) ScenarioSpec {
		return ScenarioSpec{Name: src + "-" + tgt, Build: func(seed int64) *core.Scenario {
			return scenario.MustMusicScenario(src, tgt, seed)
		}}
	}
	return Domain{Name: "Music", Scenarios: []ScenarioSpec{
		pair("f1", "m2"), pair("m1", "d2"), pair("m1", "f2"), pair("d1", "d2"),
	}}
}

// Measurement is one bar group of Figure 6/7: a scenario at one expected
// quality with the three effort values and their per-category breakdowns.
type Measurement struct {
	Scenario string
	Quality  effort.Quality
	// Efes, Measured, and Counting are total minutes (Efes and Counting
	// after cross-domain calibration).
	Efes, Measured, Counting float64
	// Breakdowns per category.
	EfesBreakdown, MeasuredBreakdown, CountingBreakdown map[effort.Category]float64
}

// DomainResult aggregates a domain's measurements and error metrics.
type DomainResult struct {
	Domain string
	Rows   []Measurement
	// EfesRMSE and CountingRMSE are the paper's relative
	// root-mean-square errors over the domain's eight measurements.
	EfesRMSE, CountingRMSE float64
}

// Experiment is the complete §6 evaluation.
type Experiment struct {
	Bibliographic, Music DomainResult
	// OverallEfesRMSE and OverallCountingRMSE pool all 16 measurements
	// ("when putting the results over the eight scenarios together").
	OverallEfesRMSE, OverallCountingRMSE float64
}

// RMSE is the paper's §6.2 error metric: the root of the mean squared
// relative estimation error.
func RMSE(measured, estimated []float64) float64 {
	if len(measured) == 0 {
		return 0
	}
	sum := 0.0
	n := 0
	for i := range measured {
		if measured[i] == 0 {
			continue
		}
		d := (measured[i] - estimated[i]) / measured[i]
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// fitScale computes the least-squares calibration factor for the relative
// error (shared by both models' cross-validation training).
func fitScale(estimates, measured []float64) float64 {
	num, den := 0.0, 0.0
	for i := range estimates {
		if estimates[i] <= 0 || measured[i] <= 0 {
			continue
		}
		r := estimates[i] / measured[i]
		num += r
		den += r * r
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// rawRun holds uncalibrated totals for one domain.
type rawRun struct {
	rows []Measurement // Efes/Counting uncalibrated here
}

// gridQualities is the quality axis of the Figure 6/7 evaluation grid, in
// row order (low effort before high quality within each scenario).
var gridQualities = []effort.Quality{effort.LowEffort, effort.HighQuality}

// evalCell evaluates one scenario×quality cell of the grid: the Efes
// estimate, the practitioner's measured ground truth, and the counting
// baseline. All randomness comes from the practitioner's per-cell RNG
// (seeded from scenario name and quality), so a cell's measurement is
// independent of when — or on which worker — it runs.
func evalCell(ctx context.Context, fw *core.Framework, pract *Practitioner, counting *baseline.Counting,
	scn *core.Scenario, name string, q effort.Quality) (Measurement, error) {
	if err := faultinject.Fire("experiments:cell"); err != nil {
		return Measurement{}, fmt.Errorf("cell %s (%s): %w", name, q, err)
	}
	res, err := fw.EstimateContext(ctx, scn, q)
	if err != nil {
		return Measurement{}, fmt.Errorf("cell %s (%s): %w", name, q, err)
	}
	measured, measuredBy, err := pract.Measure(scn, q)
	if err != nil {
		return Measurement{}, err
	}
	cnt := counting.Estimate(scn, q)
	return Measurement{
		Scenario: name, Quality: q,
		Efes: res.Estimate.Total(), Measured: measured, Counting: cnt.Total(),
		EfesBreakdown:     res.Estimate.ByCategory(),
		MeasuredBreakdown: measuredBy,
		CountingBreakdown: cnt.ByCategory(),
	}, nil
}

// gridFramework builds the evaluation framework for one domain run,
// applying the run's resilience policy. Best-effort runs fall back to the
// counting baseline for failed modules, so the grid keeps producing
// comparable (if degraded) cells.
func gridFramework(res core.Resilience) *core.Framework {
	fw := core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), valuefit.New()).SetResilience(res)
	if res.BestEffort {
		fw.SetFallback(baseline.New())
	}
	return fw
}

// runGrid evaluates the Figure 6/7 grid with fw: one item per scenario
// pair of the bibliographic and then the music domain, run through
// fanout.Run on up to workers goroutines. Each item builds its scenario
// once and evaluates it at both qualities, writing its rows at its grid
// index (scenario-major, quality order as in the figures), so the rows
// are those of a sequential run at any worker count. A cancelled grid
// starts no further cell; otherwise the first error in grid order is
// returned. fw, the practitioner and the counting baseline are shared
// by every item: their run paths are read-only.
func runGrid(ctx context.Context, fw *core.Framework, seed int64, workers int) (bib, music *rawRun, err error) {
	bibSpecs := BibliographicDomain().Scenarios
	specs := slices.Concat(bibSpecs, MusicDomain().Scenarios)
	pract := NewPractitioner(seed)
	counting := baseline.New()
	rows := make([]Measurement, len(specs)*len(gridQualities))
	err = fanout.Run(len(specs), workers, func(i int) error {
		// Building a scenario alone is expensive, so a cancelled grid
		// checks before it too.
		if err := ctx.Err(); err != nil {
			return err
		}
		spec := specs[i]
		scn := spec.Build(seed)
		for j, q := range gridQualities {
			if err := ctx.Err(); err != nil {
				return err
			}
			m, err := evalCell(ctx, fw, pract, counting, scn, spec.Name, q)
			if err != nil {
				return err
			}
			rows[i*len(gridQualities)+j] = m
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	split := len(bibSpecs) * len(gridQualities)
	return &rawRun{rows: rows[:split]}, &rawRun{rows: rows[split:]}, nil
}

// calibrate scales the Efes and Counting values of test rows by factors
// fitted on the training rows (the cross-validation of §6.2: "we used the
// effort measurements from the bibliographic domain to calibrate the
// parameters of EFES and the attribute counting approach for the
// estimation of the music domain scenarios, and vice versa").
func calibrate(train, test *rawRun) DomainResult {
	var trainEfes, trainCounting, trainMeasured []float64
	for _, r := range train.rows {
		trainEfes = append(trainEfes, r.Efes)
		trainCounting = append(trainCounting, r.Counting)
		trainMeasured = append(trainMeasured, r.Measured)
	}
	efesScale := fitScale(trainEfes, trainMeasured)
	countingScale := fitScale(trainCounting, trainMeasured)

	out := DomainResult{}
	var measured, efes, counting []float64
	for _, r := range test.rows {
		m := r
		m.Efes *= efesScale
		m.Counting *= countingScale
		m.EfesBreakdown = scaleBreakdown(r.EfesBreakdown, efesScale)
		m.CountingBreakdown = scaleBreakdown(r.CountingBreakdown, countingScale)
		out.Rows = append(out.Rows, m)
		measured = append(measured, m.Measured)
		efes = append(efes, m.Efes)
		counting = append(counting, m.Counting)
	}
	out.EfesRMSE = RMSE(measured, efes)
	out.CountingRMSE = RMSE(measured, counting)
	return out
}

func scaleBreakdown(b map[effort.Category]float64, k float64) map[effort.Category]float64 {
	out := make(map[effort.Category]float64, len(b))
	for c, v := range b {
		out[c] = v * k
	}
	return out
}

// Run executes the full evaluation: both domains, cross-validated
// calibration, per-domain and pooled RMSE.
func Run(seed int64) (*Experiment, error) {
	return RunParallel(seed, 1)
}

// RunParallel is Run with the evaluation grid on up to workers
// goroutines. Output is guaranteed byte-identical to Run for every
// worker count — see runGrid.
func RunParallel(seed int64, workers int) (*Experiment, error) {
	return RunParallelContext(context.Background(), seed, workers)
}

// RunParallelContext is RunParallel with overall cancellation: a
// cancelled context stops the evaluation grid promptly (unstarted cells
// are skipped, running cells stop at their next cancellation check) and
// the context's error is returned. It uses the strict (fail-fast, no
// deadline) resilience policy; use RunResilient to configure one.
func RunParallelContext(ctx context.Context, seed int64, workers int) (*Experiment, error) {
	return RunResilient(ctx, seed, workers, core.Resilience{})
}

// RunResilient runs the evaluation with a resilience policy applied to
// every cell's framework: per-module deadlines, retries, and — in
// best-effort mode — graceful degradation onto the counting baseline, so
// a single faulty detector degrades cells instead of killing the grid.
// For a fixed policy outcome the output remains deterministic across
// worker counts.
func RunResilient(ctx context.Context, seed int64, workers int, res core.Resilience) (*Experiment, error) {
	bibRaw, musicRaw, err := runGrid(ctx, gridFramework(res), seed, workers)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{}
	exp.Bibliographic = calibrate(musicRaw, bibRaw) // trained on music
	exp.Bibliographic.Domain = "Bibliographic"
	exp.Music = calibrate(bibRaw, musicRaw) // trained on bibliographic
	exp.Music.Domain = "Music"

	var measured, efes, counting []float64
	for _, d := range []DomainResult{exp.Bibliographic, exp.Music} {
		for _, r := range d.Rows {
			measured = append(measured, r.Measured)
			efes = append(efes, r.Efes)
			counting = append(counting, r.Counting)
		}
	}
	exp.OverallEfesRMSE = RMSE(measured, efes)
	exp.OverallCountingRMSE = RMSE(measured, counting)
	return exp, nil
}

// categories is the stacked-bar order of Figures 6/7.
var categories = []effort.Category{
	effort.CategoryMapping,
	effort.CategoryCleaningStructure,
	effort.CategoryCleaningValues,
}

var categoryGlyph = map[effort.Category]rune{
	effort.CategoryMapping:           '█',
	effort.CategoryCleaningStructure: '▒',
	effort.CategoryCleaningValues:    '░',
}

// RenderFigure renders a domain result as the paper's stacked bar chart
// (Figure 6 or 7) in ASCII: per scenario and quality, the three bars
// (Efes, Measured, Counting) stacked by Mapping / Cleaning (Structure) /
// Cleaning (Values).
func RenderFigure(d DomainResult) string {
	var b strings.Builder
	maxVal := 1.0
	for _, r := range d.Rows {
		for _, v := range []float64{r.Efes, r.Measured, r.Counting} {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	const width = 60
	fmt.Fprintf(&b, "%s domain — effort estimates vs. measured effort [min]\n", d.Domain)
	fmt.Fprintf(&b, "legend: █ %s   ▒ %s   ░ %s\n\n",
		effort.CategoryMapping, effort.CategoryCleaningStructure, effort.CategoryCleaningValues)
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "%s (%s)\n", r.Scenario, r.Quality)
		bars := []struct {
			label     string
			total     float64
			breakdown map[effort.Category]float64
		}{
			{"Efes", r.Efes, r.EfesBreakdown},
			{"Measured", r.Measured, r.MeasuredBreakdown},
			{"Counting", r.Counting, r.CountingBreakdown},
		}
		for _, bar := range bars {
			fmt.Fprintf(&b, "  %-9s ", bar.label)
			for _, cat := range categories {
				n := int(bar.breakdown[cat] / maxVal * width)
				b.WriteString(strings.Repeat(string(categoryGlyph[cat]), n))
			}
			fmt.Fprintf(&b, " %.0f\n", bar.total)
		}
	}
	fmt.Fprintf(&b, "\nrmse: Efes %.2f, Counting %.2f\n", d.EfesRMSE, d.CountingRMSE)
	return b.String()
}

// SourceSelectionRanking ranks candidate sources by integration fit (the
// §1/§3.3 source-selection application): it runs the complexity assessment
// for each candidate against the target and orders them by core.FitScore.
func SourceSelectionRanking(candidates []*core.Scenario, q effort.Quality) ([]string, error) {
	fw := core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), valuefit.New())
	type ranked struct {
		name string
		fit  float64
	}
	var rs []ranked
	for _, scn := range candidates {
		res, err := fw.Estimate(scn, q)
		if err != nil {
			return nil, err
		}
		rs = append(rs, ranked{name: scn.Name, fit: core.FitScore(res)})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].fit != rs[j].fit {
			return rs[i].fit > rs[j].fit
		}
		return rs[i].name < rs[j].name
	})
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.name
	}
	return names, nil
}
