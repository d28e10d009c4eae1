// Package valuefit implements the value-heterogeneity estimation module of
// §5: the value fit detector aggregates corresponding source and target
// attributes into statistics, runs the Algorithm-1 decision model
// (importance-weighted fit values, 0.9 threshold) to classify value
// heterogeneities (Table 6), and the value transformation planner proposes
// the cleaning tasks of Table 7.
package valuefit

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"efes/internal/core"
	"efes/internal/fanout"
	"efes/internal/profile"
	"efes/internal/relational"
)

// Kind classifies a value heterogeneity (the outcomes of Algorithm 1).
type Kind string

// The value heterogeneity classes.
const (
	// TooFewElements: the source provides substantially fewer values
	// than the target attribute usually carries.
	TooFewElements Kind = "Too few source elements"
	// DifferentRepresentationsCritical: source values cannot even be
	// cast to the target datatype.
	DifferentRepresentationsCritical Kind = "Different value representations (critical)"
	// TooCoarse: the source draws from a discrete domain while the
	// target is free-form.
	TooCoarse Kind = "Too coarse-grained source values"
	// TooFine: the target draws from a discrete domain while the
	// source is free-form.
	TooFine Kind = "Too fine-grained source values"
	// DifferentRepresentations: domain-specific differences between
	// castable values (e.g. milliseconds vs "m:ss").
	DifferentRepresentations Kind = "Different value representations"
)

// FitThreshold separates seamlessly integrating attribute pairs from those
// with notably different characteristics (§5.1: "we found 0.9 to be a good
// threshold").
const FitThreshold = 0.9

// The other thresholds of Algorithm 1.
const (
	// fewerValuesFactor is the threshold of
	// substantiallyFewerSourceValues: the source fill status must be
	// below this fraction of the target's.
	fewerValuesFactor = 0.5
	// domainDistinctLimit bounds the distinct values of a
	// domain-restricted attribute.
	domainDistinctLimit = 24
	// domainConstancy is the minimum constancy of a domain-restricted
	// attribute.
	domainConstancy = 0.5
)

// Heterogeneity is one detected value heterogeneity with the additional
// parameters of Table 6.
type Heterogeneity struct {
	// Source names the source database.
	Source string
	// Kind is the heterogeneity class.
	Kind Kind
	// SourceAttr and TargetAttr name the conflicting attribute pair.
	SourceAttr, TargetAttr relational.ColumnRef
	// SourceValues is the number of non-NULL source values.
	SourceValues int
	// SourceDistinct is the number of distinct source values.
	SourceDistinct int
	// Fit is the overall importance-weighted fit value in [0,1]
	// (only meaningful for DifferentRepresentations).
	Fit float64
	// Incompatible counts source values that cannot be cast to the
	// target type (only for the critical class).
	Incompatible int
}

// Pair renders the attribute pair as in Table 6, e.g.
// "length -> duration".
func (h *Heterogeneity) Pair() string {
	return h.SourceAttr.Column + " -> " + h.TargetAttr.Column
}

// String renders the heterogeneity for reports.
func (h *Heterogeneity) String() string {
	return fmt.Sprintf("%s (%s): %d source values, %d distinct",
		h.Kind, h.Pair(), h.SourceValues, h.SourceDistinct)
}

// Report is the value-fit module's data complexity report (Table 6).
type Report struct {
	// Heterogeneities holds one entry per conflicting attribute pair.
	Heterogeneities []*Heterogeneity
	// PairsChecked is the number of corresponding attribute pairs
	// inspected.
	PairsChecked int
}

// ModuleName implements core.Report.
func (r *Report) ModuleName() string { return ModuleName }

// ProblemCount implements core.Report.
func (r *Report) ProblemCount() int { return len(r.Heterogeneities) }

// Summary renders the report in the shape of the paper's Table 6.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-55s %s\n", "Value heterogeneity", "Additional parameters")
	for _, h := range r.Heterogeneities {
		fmt.Fprintf(&b, "%-55s %d source values, %d distinct source values\n",
			fmt.Sprintf("%s (%s)", h.Kind, h.Pair()), h.SourceValues, h.SourceDistinct)
	}
	fmt.Fprintf(&b, "(%d attribute pairs checked)\n", r.PairsChecked)
	return b.String()
}

// ProblemSites implements core.ProblemLocator: one site per heterogeneity,
// located at the target attribute.
func (r *Report) ProblemSites() []core.ProblemSite {
	var out []core.ProblemSite
	for _, h := range r.Heterogeneities {
		out = append(out, core.ProblemSite{Table: h.TargetAttr.Table, Attribute: h.TargetAttr.Column, Count: 1})
	}
	return out
}

// ModuleName is the module's registered name.
const ModuleName = "value heterogeneities"

// Module is the value-heterogeneity estimation module.
type Module struct {
	// Profiler memoizes column profiles across correspondences (and,
	// when shared, across scenarios and goroutines). When nil, each
	// AssessComplexity call uses a private cache, which still profiles
	// every target column once per scenario instead of once per
	// correspondence.
	Profiler *profile.Profiler
}

// New creates the module.
func New() *Module { return &Module{} }

// Name implements core.Module.
func (m *Module) Name() string { return ModuleName }

// AssessComplexity implements core.Module: the value fit detector.
func (m *Module) AssessComplexity(s *core.Scenario) (core.Report, error) {
	return m.AssessComplexityContext(context.Background(), s)
}

// AssessComplexityContext implements core.ContextModule. The
// corresponding attribute pairs run through fanout.Run on up to
// Profiler.Workers() goroutines, and the report lists them in pair order
// whatever order they finish in. ctx is checked before each pair starts
// and propagated into the profiler, so an expired deadline interrupts
// even a long profiling run promptly (and a profile computation already
// in flight on the shared cache is simply abandoned by this caller, not
// poisoned for others). A failure returns the error of the first failing
// pair in pair order, and a panic in a pair is raised again on the
// calling goroutine.
func (m *Module) AssessComplexityContext(ctx context.Context, s *core.Scenario) (core.Report, error) {
	prof := m.Profiler
	if prof == nil {
		prof = profile.NewProfiler(0)
	}
	type attrPair struct {
		src            *core.Source
		st, sc, tt, tc string
	}
	var pairs []attrPair
	for _, src := range s.Sources {
		for _, corr := range src.Correspondences.AttributePairs() {
			// Key and foreign key target columns are exempt: their
			// values are generated or re-keyed by the mapping rather
			// than copied, so representation differences do not cause
			// transformation work (cf. the mapping module's PK and FK
			// complexity terms).
			if generatedColumn(s.Target.Schema, corr.TargetTable, corr.TargetColumn) {
				continue
			}
			pairs = append(pairs, attrPair{src, corr.SourceTable, corr.SourceColumn, corr.TargetTable, corr.TargetColumn})
		}
	}
	found := make([]*Heterogeneity, len(pairs))
	err := fanout.Run(len(pairs), prof.Workers(), func(i int) (err error) {
		if err = ctx.Err(); err != nil {
			return err
		}
		p := pairs[i]
		found[i], err = m.checkPair(ctx, prof, p.src, s.Target, p.st, p.sc, p.tt, p.tc)
		return err
	})
	if err != nil {
		return nil, err
	}
	report := &Report{PairsChecked: len(pairs)}
	for _, h := range found {
		if h != nil {
			report.Heterogeneities = append(report.Heterogeneities, h)
		}
	}
	sort.SliceStable(report.Heterogeneities, func(i, j int) bool {
		a, b := report.Heterogeneities[i], report.Heterogeneities[j]
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Pair() < b.Pair()
	})
	return report, nil
}

// checkPair runs Algorithm 1 on one corresponding attribute pair. All
// profiling goes through the profiler cache: the raw source profile, the
// coerced source view, and — crucially — the target profile, which many
// correspondences share and which is therefore computed once per scenario.
func (m *Module) checkPair(ctx context.Context, prof *profile.Profiler, src *core.Source, target *relational.Database,
	st, sc, tt, tc string) (*Heterogeneity, error) {

	rawSS, err := prof.ColumnContext(ctx, src.DB, st, sc)
	if err != nil {
		return nil, err
	}
	tstats, err := prof.ColumnContext(ctx, target, tt, tc)
	if err != nil {
		return nil, err
	}
	tgtCol, _ := target.Schema.Table(tt).Column(tc)

	// The target attribute's datatype designates which statistics to
	// use; source values are viewed through the target type (how they
	// would look once integrated), with incompatible ones counted.
	ss, incompatible, err := prof.ColumnCoercedContext(ctx, src.DB, st, sc, tgtCol.Type)
	if err != nil {
		return nil, err
	}

	h := &Heterogeneity{
		Source:         src.Name,
		SourceAttr:     relational.ColumnRef{Table: st, Column: sc},
		TargetAttr:     relational.ColumnRef{Table: tt, Column: tc},
		SourceValues:   rawSS.Rows - rawSS.Nulls,
		SourceDistinct: rawSS.Distinct,
		Incompatible:   incompatible,
	}

	// Algorithm 1, line 1: substantially fewer source values.
	if tstats.Rows > 0 && rawSS.Rows > 0 && rawSS.Fill < fewerValuesFactor*tstats.Fill {
		h.Kind = TooFewElements
		return h, nil
	}
	// Line 3: incompatible values are critical.
	if incompatible > 0 {
		h.Kind = DifferentRepresentationsCritical
		return h, nil
	}
	if ss.Rows == 0 || tstats.Rows == 0 {
		return nil, nil // nothing to compare
	}
	// Lines 5-8: domain granularity mismatch.
	srcRestricted := domainRestricted(ss)
	tgtRestricted := domainRestricted(tstats)
	switch {
	case srcRestricted && !tgtRestricted:
		h.Kind = TooCoarse
		return h, nil
	case !srcRestricted && tgtRestricted:
		h.Kind = TooFine
		return h, nil
	}
	// Lines 9-10: domain-specific differences via the weighted fit.
	fit := OverallFit(ss, tstats)
	if fit < FitThreshold {
		h.Kind = DifferentRepresentations
		h.Fit = fit
		return h, nil
	}
	return nil, nil
}

// generatedColumn reports whether a target column is part of a primary
// key, declared unique, or part of a foreign key.
func generatedColumn(s *relational.Schema, table, column string) bool {
	if s.Unique(table, column) {
		return true
	}
	if pk, ok := s.PrimaryKeyOf(table); ok {
		for _, c := range pk.Columns {
			if c == column {
				return true
			}
		}
	}
	for _, fk := range s.ForeignKeysOf(table) {
		for _, c := range fk.Columns {
			if c == column {
				return true
			}
		}
	}
	return false
}

// domainRestricted classifies whether an attribute's values come from a
// discrete domain, using constancy (the inverse of Shannon's entropy) and
// the distinct-value count.
func domainRestricted(cs *profile.ColumnStats) bool {
	nonNull := cs.Rows - cs.Nulls
	if nonNull == 0 || cs.Distinct == 0 {
		return false
	}
	if cs.Distinct > domainDistinctLimit {
		return false
	}
	// Few distinct values only indicate a domain if they actually
	// repeat (a three-row table with three values is not a domain).
	if nonNull < 2*cs.Distinct {
		return false
	}
	return cs.Constancy >= domainConstancy || cs.TopKCoverage >= 0.95
}

// statFit pairs an importance score with a fit value for one statistic
// type (§5.1).
type statFit struct {
	Type       profile.StatType
	Importance float64
	Fit        float64
}

// StatFits computes the per-statistic importance scores i(St(τ)) and fit
// values f(Ss(τ), St(τ)) for an attribute pair, with the statistic
// selection designated by the (shared) datatype of the profiles.
//
// Distribution-shaped statistics (patterns, character histograms, top-k,
// numeric histograms) are noisy on small samples: two random draws from
// the same population intersect imperfectly. Their fits are therefore
// shrunk toward neutral with the sample size, while scale-based statistics
// (mean, value range) stay raw — a milliseconds-vs-seconds mismatch is
// evident even from a handful of values.
func StatFits(ss, ts *profile.ColumnStats) []statFit {
	n := ss.Rows - ss.Nulls
	if t := ts.Rows - ts.Nulls; t < n {
		n = t
	}
	var out []statFit
	if ts.Type == relational.String {
		out = append(out,
			statFit{profile.StatTextPattern, patternImportance(ts), shrinkFit(patternFit(ss, ts), n)},
			statFit{profile.StatCharHistogram, histConcentration(ts.CharHist), shrinkFit(charHistFit(ss, ts), n)},
			statFit{profile.StatStringLength, distImportance(ts.StringLength), shrinkFit(distFit(ss.StringLength, ts.StringLength), n)},
			statFit{profile.StatTopK, topKImportance(ts), shrinkFit(topKFit(ss, ts), n)},
		)
		return out
	}
	if ss.HasNumeric && ts.HasNumeric {
		out = append(out,
			statFit{profile.StatMean, distImportance(ts.Mean), distFit(ss.Mean, ts.Mean)},
			statFit{profile.StatValueRange, 1, rangeFit(ss, ts)},
			statFit{profile.StatHistogram, 0.5, shrinkFit(histogramFit(ss, ts), n)},
			statFit{profile.StatTopK, topKImportance(ts), shrinkFit(topKFit(ss, ts), n)},
		)
	}
	return out
}

// shrinkSamples controls how quickly distribution fits become trustworthy:
// with fewer than a few dozen values, the intersection of two pattern or
// top-k distributions drawn from the same population is well below 1, so
// small samples should barely depress the overall fit.
const shrinkSamples = 50

// shrinkFit pulls a fit value toward 1 for small samples:
// 1 - n/(n+shrinkSamples) · (1-fit).
func shrinkFit(fit float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	w := float64(n) / float64(n+shrinkSamples)
	return 1 - w*(1-fit)
}

// OverallFit is the importance-weighted average fit of §5.1:
//
//	f = Σ_τ i(St(τ)) · f(Ss(τ), St(τ)) / Σ_τ i(St(τ))
//
// It returns 1 when no statistic applies (nothing indicates a mismatch).
// Statistics whose fit or importance is not finite — degenerate profiles
// such as empty or all-NULL columns, or data containing ±Inf — are skipped
// rather than allowed to poison the weighted average with NaN: a NaN here
// would silently disable the 0.9 threshold decision (every comparison with
// NaN is false), hiding real heterogeneities.
func OverallFit(ss, ts *profile.ColumnStats) float64 {
	fits := StatFits(ss, ts)
	num, den := 0.0, 0.0
	for _, sf := range fits {
		if math.IsNaN(sf.Fit) || math.IsInf(sf.Fit, 0) ||
			math.IsNaN(sf.Importance) || math.IsInf(sf.Importance, 0) {
			continue
		}
		num += sf.Importance * sf.Fit
		den += sf.Importance
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// topKImportance weights the top-k statistic by how characteristic the
// most frequent values are: quadratic in their coverage, so the statistic
// only matters for domain-like attributes where the top values dominate,
// and barely influences high-cardinality attributes whose top values are
// sampling noise.
func topKImportance(ts *profile.ColumnStats) float64 {
	return ts.TopKCoverage * ts.TopKCoverage
}

// patternImportance is high when the target values follow few patterns:
// the share of values covered by the most frequent pattern.
func patternImportance(ts *profile.ColumnStats) float64 {
	total := 0
	for _, p := range ts.Patterns {
		total += p.Count
	}
	if total == 0 || len(ts.Patterns) == 0 {
		return 0
	}
	return float64(ts.Patterns[0].Count) / float64(total)
}

// patternFit is the intersection of the two pattern distributions.
func patternFit(ss, ts *profile.ColumnStats) float64 {
	return distributionIntersection(ss.Patterns, ts.Patterns)
}

// distributionIntersection computes Σ min(p_s, p_t) over relative
// frequencies.
func distributionIntersection(a, b []profile.ValueCount) float64 {
	totalA, totalB := 0, 0
	for _, v := range a {
		totalA += v.Count
	}
	for _, v := range b {
		totalB += v.Count
	}
	if totalA == 0 || totalB == 0 {
		return 0
	}
	freqB := make(map[string]float64, len(b))
	for _, v := range b {
		freqB[v.Value] = float64(v.Count) / float64(totalB)
	}
	sum := 0.0
	for _, v := range a {
		fa := float64(v.Count) / float64(totalA)
		sum += math.Min(fa, freqB[v.Value])
	}
	return sum
}

// histConcentration is the Herfindahl concentration of a character
// histogram: high when few characters dominate (a strong signature).
// The frequencies are summed in rune order: floating-point addition is
// not associative, so summing in map order would make the concentration
// (and everything downstream of it) vary between runs.
func histConcentration(hist map[rune]float64) float64 {
	sum := 0.0
	for _, r := range sortedRunes(hist) {
		f := hist[r]
		sum += f * f
	}
	return sum
}

// sortedRunes returns the histogram's keys in rune order, for
// deterministic float summation.
func sortedRunes(hist map[rune]float64) []rune {
	runes := make([]rune, 0, len(hist))
	for r := range hist {
		runes = append(runes, r)
	}
	sort.Slice(runes, func(i, j int) bool { return runes[i] < runes[j] })
	return runes
}

// charHistFit is the cosine similarity of the two character histograms.
// Degenerate inputs yield a defined fit instead of NaN from the zero-norm
// division: two empty histograms (both columns empty, all-NULL, or holding
// only empty strings) carry no evidence of a mismatch and fit perfectly,
// while an empty histogram against a populated one is a maximal mismatch.
func charHistFit(ss, ts *profile.ColumnStats) float64 {
	if len(ss.CharHist) == 0 && len(ts.CharHist) == 0 {
		return 1
	}
	if len(ss.CharHist) == 0 || len(ts.CharHist) == 0 {
		return 0
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for _, r := range sortedRunes(ss.CharHist) {
		f := ss.CharHist[r]
		dot += f * ts.CharHist[r]
		na += f * f
	}
	for _, r := range sortedRunes(ts.CharHist) {
		f := ts.CharHist[r]
		nb += f * f
	}
	if na == 0 || nb == 0 {
		return 0 // all-zero frequencies: no shared signature to compare
	}
	return dot / math.Sqrt(na*nb)
}

// distImportance is high for tight distributions (small coefficient of
// variation): a characteristic scale.
func distImportance(d profile.Dist) float64 {
	if d.Mean == 0 && d.StdDev == 0 {
		return 0
	}
	scale := math.Abs(d.Mean)
	if scale == 0 {
		return 0.5
	}
	return 1 / (1 + d.StdDev/scale)
}

// distFit measures the overlap of two (approximately normal)
// distributions via the standardized mean distance. Non-finite moments
// (from columns containing ±Inf, or empty distributions upstream) carry no
// usable evidence, so they yield the neutral fit 1 instead of NaN.
func distFit(a, b profile.Dist) float64 {
	if !finiteDist(a) || !finiteDist(b) {
		return 1
	}
	spread := math.Sqrt(a.StdDev*a.StdDev+b.StdDev*b.StdDev) + 1e-9
	// Also admit scale: means that differ by orders of magnitude fit
	// badly even with huge variances.
	scale := math.Max(math.Abs(a.Mean), math.Abs(b.Mean))
	if scale > 0 {
		spread = math.Min(spread, scale)
	}
	d := math.Abs(a.Mean-b.Mean) / spread
	return math.Exp(-d * d / 2)
}

// finiteDist reports whether both moments of a distribution are finite.
func finiteDist(d profile.Dist) bool {
	return !math.IsNaN(d.Mean) && !math.IsInf(d.Mean, 0) &&
		!math.IsNaN(d.StdDev) && !math.IsInf(d.StdDev, 0)
}

// rangeFit is the overlap of the two value ranges, relative to the
// narrower of the two spans: jittered but cohabiting ranges fit well,
// while different scales (seconds vs milliseconds) yield zero. Non-finite
// bounds (data containing ±Inf) carry no evidence and yield the neutral
// fit 1; columns without numeric values never reach this function, as
// StatFits only selects the numeric statistics when both sides have
// numeric data.
func rangeFit(ss, ts *profile.ColumnStats) float64 {
	for _, v := range []float64{ss.Min, ss.Max, ts.Min, ts.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1
		}
	}
	lo := math.Max(ss.Min, ts.Min)
	hi := math.Min(ss.Max, ts.Max)
	if hi < lo {
		return 0
	}
	span := math.Min(ss.Max-ss.Min, ts.Max-ts.Min)
	if span == 0 {
		return 1 // a degenerate range inside the other fits
	}
	return (hi - lo) / span
}

// histogramFit intersects the two numeric histograms after projecting
// them onto the union range.
func histogramFit(ss, ts *profile.ColumnStats) float64 {
	lo := math.Min(ss.Min, ts.Min)
	hi := math.Max(ss.Max, ts.Max)
	if hi == lo {
		return 1
	}
	project := func(cs *profile.ColumnStats) []float64 {
		out := make([]float64, profile.HistogramBuckets)
		total := 0
		for _, n := range cs.NumHist.Buckets {
			total += n
		}
		if total == 0 {
			return out
		}
		width := (cs.NumHist.Max - cs.NumHist.Min)
		for i, n := range cs.NumHist.Buckets {
			center := cs.NumHist.Min
			if width > 0 {
				center += (float64(i) + 0.5) * width / profile.HistogramBuckets
			}
			b := int((center - lo) / (hi - lo) * profile.HistogramBuckets)
			if b >= profile.HistogramBuckets {
				b = profile.HistogramBuckets - 1
			}
			if b < 0 {
				b = 0
			}
			out[b] += float64(n) / float64(total)
		}
		return out
	}
	pa, pb := project(ss), project(ts)
	sum := 0.0
	for i := range pa {
		sum += math.Min(pa[i], pb[i])
	}
	// Histograms are a coarse signal; damp bucket-boundary noise so
	// that only substantial distribution shifts depress the fit.
	return 0.5 + 0.5*sum
}

// topKFit is the weighted overlap of the two top-k value lists.
func topKFit(ss, ts *profile.ColumnStats) float64 {
	return distributionIntersection(ss.TopK, ts.TopK)
}
