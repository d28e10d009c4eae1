// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the hot paths (profiling, CSG path
// search, matching). Run with:
//
//	go test -bench=. -benchmem
//
// The per-table benches execute the code that produces the corresponding
// report on the running example; the per-figure benches run the respective
// part of the §6 evaluation.
package efes_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"efes"
	"efes/internal/baseline"
	"efes/internal/core"
	"efes/internal/csg"
	"efes/internal/effort"
	"efes/internal/exchange"
	"efes/internal/experiments"
	"efes/internal/mapping"
	"efes/internal/match"
	"efes/internal/persist"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
	sqlpkg "efes/internal/sql"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// benchExample caches the small running example across benchmarks.
var benchExample = scenario.MusicExample(scenario.SmallExampleConfig())

func benchFramework() *core.Framework {
	return core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), valuefit.New())
}

// BenchmarkTable1BaselineCatalog prices a scenario with Harden's
// attribute-counting catalog (Table 1).
func BenchmarkTable1BaselineCatalog(b *testing.B) {
	c := baseline.New()
	for i := 0; i < b.N; i++ {
		if c.Estimate(benchExample, effort.LowEffort).Total() <= 0 {
			b.Fatal("zero estimate")
		}
	}
}

// BenchmarkTable2MappingComplexity produces the mapping complexity report
// (Table 2).
func BenchmarkTable2MappingComplexity(b *testing.B) {
	m := mapping.New()
	for i := 0; i < b.N; i++ {
		if _, err := m.AssessComplexity(benchExample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3StructureConflicts runs the structure conflict detector
// (Table 3): CSG conversion, relationship matching, violation counting.
func BenchmarkTable3StructureConflicts(b *testing.B) {
	m := structure.New()
	for i := 0; i < b.N; i++ {
		if _, err := m.AssessComplexity(benchExample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4RepairCatalog plans repairs for a synthetic conflict mix
// covering every row of the Table-4 catalog.
func BenchmarkTable4RepairCatalog(b *testing.B) {
	m := structure.New()
	rep, err := m.AssessComplexity(benchExample)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range []effort.Quality{effort.LowEffort, effort.HighQuality} {
			if _, err := m.PlanTasks(rep, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable5RepairPlan derives and prices the high-quality structure
// repair plan (Table 5).
func BenchmarkTable5RepairPlan(b *testing.B) {
	m := structure.New()
	rep, err := m.AssessComplexity(benchExample)
	if err != nil {
		b.Fatal(err)
	}
	calc := effort.NewCalculator(effort.DefaultSettings())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks, err := m.PlanTasks(rep, effort.HighQuality)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := calc.Price(effort.HighQuality, tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6ValueFit runs the value fit detector (Table 6): per-pair
// statistics and the Algorithm-1 decision model.
func BenchmarkTable6ValueFit(b *testing.B) {
	m := valuefit.New()
	for i := 0; i < b.N; i++ {
		if _, err := m.AssessComplexity(benchExample); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8ValuePlan derives and prices the value transformation
// plan (Table 8).
func BenchmarkTable8ValuePlan(b *testing.B) {
	m := valuefit.New()
	rep, err := m.AssessComplexity(benchExample)
	if err != nil {
		b.Fatal(err)
	}
	calc := effort.NewCalculator(effort.DefaultSettings())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks, err := m.PlanTasks(rep, effort.HighQuality)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := calc.Price(effort.HighQuality, tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable9EffortFunctions prices a representative task list with
// the Table-9 effort functions.
func BenchmarkTable9EffortFunctions(b *testing.B) {
	calc := effort.NewCalculator(effort.DefaultSettings())
	tasks := []effort.Task{
		{Type: effort.TaskWriteMapping, Repetitions: 1, Params: map[string]float64{"tables": 3, "attributes": 2, "PKs": 1}},
		{Type: effort.TaskAddTuples, Repetitions: 102},
		{Type: effort.TaskAddMissingValues, Repetitions: 102, Params: map[string]float64{"values": 102}},
		{Type: effort.TaskMergeValues, Repetitions: 503},
		{Type: effort.TaskConvertValues, Repetitions: 274523, Params: map[string]float64{"values": 274523, "dist-vals": 260923}},
	}
	for i := 0; i < b.N; i++ {
		if _, err := calc.Price(effort.HighQuality, tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4CSGConversion converts the running example's schemas and
// instance into cardinality-constrained schema graphs (Figure 4). The
// interned instance builds node elements on demand, so the benchmark asks
// every node for its element count to measure a full conversion.
func BenchmarkFigure4CSGConversion(b *testing.B) {
	src := benchExample.Sources[0].DB
	for i := 0; i < b.N; i++ {
		g, err := csg.FromSchema(src.Schema)
		if err != nil {
			b.Fatal(err)
		}
		in, err := csg.FromDatabaseInterned(g, src)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range g.Nodes() {
			in.NumElements(n)
		}
	}
}

// BenchmarkFigure5RepairSimulation runs the virtual-CSG repair simulation
// with its side-effect trace (Figure 5).
func BenchmarkFigure5RepairSimulation(b *testing.B) {
	m := structure.New()
	rep, err := m.AssessComplexity(benchExample)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.PlanWithTrace(rep, effort.HighQuality); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Bibliographic runs the bibliographic domain end to end:
// four scenarios × two qualities × three estimators plus cross-validated
// calibration (Figure 6).
func BenchmarkFigure6Bibliographic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp, err := experiments.Run(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if exp.Bibliographic.EfesRMSE >= exp.Bibliographic.CountingRMSE {
			b.Fatal("EFES must beat the baseline in the bibliographic domain")
		}
	}
}

// BenchmarkFigure7Music asserts the music-domain result of the same run
// (Figure 7).
func BenchmarkFigure7Music(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp, err := experiments.Run(experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if exp.Music.EfesRMSE >= exp.Music.CountingRMSE {
			b.Fatal("EFES must beat the baseline in the music domain")
		}
	}
}

// BenchmarkFullEstimate runs the complete two-phase pipeline on the
// running example (the "completes within seconds" claim of §6.2).
func BenchmarkFullEstimate(b *testing.B) {
	fw := benchFramework()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Estimate(benchExample, effort.HighQuality); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileColumn profiles one 10k-value column.
func BenchmarkProfileColumn(b *testing.B) {
	values := make([]efes.Value, 10000)
	for i := range values {
		values[i] = "4:43"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profile.Values("t", "c", efes.String, values)
	}
}

// BenchmarkPathSearch matches a target relationship against the source CSG
// (the §4.1 graph search).
func BenchmarkPathSearch(b *testing.B) {
	src := csg.MustFromSchema(benchExample.Sources[0].DB.Schema)
	from := src.Node("albums")
	to := src.Node("artist_credits.artist")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := csg.FindPaths(src, from, to, csg.MaxPathLength)
		if csg.BestPath(paths) == nil {
			b.Fatal("no path")
		}
	}
}

// BenchmarkMatcher discovers correspondences between the running example's
// source and target.
func BenchmarkMatcher(b *testing.B) {
	m := match.NewMatcher()
	for i := 0; i < b.N; i++ {
		if set := m.Match(benchExample.Sources[0].DB, benchExample.Target); len(set.All) == 0 {
			b.Fatal("no correspondences")
		}
	}
}

// BenchmarkConstraintValidation validates the running example instance
// against all of its constraints.
func BenchmarkConstraintValidation(b *testing.B) {
	db := benchExample.Sources[0].DB
	for i := 0; i < b.N; i++ {
		if v := db.Validate(); len(v) != 0 {
			b.Fatal("fixture invalid")
		}
	}
}

// BenchmarkAblation runs the module ablation study (DESIGN.md §13): the
// full evaluation for five framework configurations.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablation(context.Background(), experiments.DefaultSeed, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("unexpected ablation size")
		}
	}
}

// BenchmarkCostBenefit derives the §7 cost-benefit curve of the running
// example.
func BenchmarkCostBenefit(b *testing.B) {
	fw := benchFramework()
	for i := 0; i < b.N; i++ {
		curve, err := fw.CostBenefit(benchExample)
		if err != nil {
			b.Fatal(err)
		}
		if len(curve.Points) == 0 {
			b.Fatal("empty curve")
		}
	}
}

// BenchmarkDiscovery reverse-engineers constraints from the running
// example's source instance (§3.1 completeness).
func BenchmarkDiscovery(b *testing.B) {
	db := benchExample.Sources[0].DB
	for i := 0; i < b.N; i++ {
		if d := profile.Discover(db); len(d.PrimaryKeys) == 0 {
			b.Fatal("no keys discovered")
		}
	}
}

// BenchmarkIntegrationExecution performs the actual integration of the
// running example (the production side of Figure 1), naive and repaired.
func BenchmarkIntegrationExecution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := exchange.Integrate(benchExample, exchange.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if out.InsertedRows["records"] == 0 {
			b.Fatal("nothing integrated")
		}
	}
}

// BenchmarkEstimateScaling measures the full estimate over growing
// instance sizes (the §6.2 claim: "completes within seconds for databases
// with thousands of tuples" — the analysis is linear in the data).
func BenchmarkEstimateScaling(b *testing.B) {
	for _, songs := range []int{1000, 10000, 50000} {
		songs := songs
		b.Run(fmt.Sprintf("songs=%d", songs), func(b *testing.B) {
			cfg := scenario.SmallExampleConfig()
			cfg.Songs = songs
			cfg.DistinctLengths = songs * 9 / 10
			cfg.Albums = songs / 10
			cfg.AlbumsNoArtist = songs / 100
			cfg.AlbumsMultiArtist = songs / 80
			scn := scenario.MusicExample(cfg)
			fw := benchFramework()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fw.Estimate(scn, effort.HighQuality); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSQLAnalysisQuery runs a representative analysis query (join +
// group + aggregate) over the running example's source, the kind of query
// the paper's prototype issues for violation counting.
func BenchmarkSQLAnalysisQuery(b *testing.B) {
	db := benchExample.Sources[0].DB
	const q = "SELECT artist_list, COUNT(*) FROM artist_credits GROUP BY artist_list"
	for i := 0; i < b.N; i++ {
		res, err := sqlpkg.Query(db, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkSQLJoin measures the hash join over songs and albums.
func BenchmarkSQLJoin(b *testing.B) {
	db := benchExample.Sources[0].DB
	const q = "SELECT COUNT(*) FROM songs JOIN albums ON songs.album = albums.id"
	for i := 0; i < b.N; i++ {
		if _, err := sqlpkg.Query(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateSequential is the single-worker reference for
// BenchmarkEstimateParallel: the full two-phase pipeline with sequential
// detectors and a private (uncached across iterations) profiler.
func BenchmarkEstimateSequential(b *testing.B) {
	fw := benchFramework()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Estimate(benchExample, effort.HighQuality); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateParallel runs the same pipeline with concurrent module
// detectors and a shared profiling cache, and reports the cache hit rate
// as a custom metric. On multi-core machines this is where the detector
// concurrency and the memoized target-column profiles pay off (compare
// with BenchmarkEstimateSequential).
func BenchmarkEstimateParallel(b *testing.B) {
	vm := valuefit.New()
	vm.Profiler = profile.NewProfiler(runtime.GOMAXPROCS(0))
	fw := core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), vm).SetWorkers(runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Estimate(benchExample, effort.HighQuality); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(vm.Profiler.HitRate(), "cache-hit-rate")
}

// largeExample lazily builds the LargeExampleConfig scenario, shared by
// the *Large benchmarks below. Lazy (sync.Once, not a package var) so
// that plain `go test` runs and the CI bench smoke pass don't pay the
// generation cost.
var largeExample = sync.OnceValue(func() *core.Scenario {
	return scenario.MusicExample(scenario.LargeExampleConfig())
})

// BenchmarkValueFitLarge runs the value fit detector at LargeExampleConfig
// scale: profiling-dominated (every corresponding attribute pair needs the
// raw source, coerced source, and target profile).
func BenchmarkValueFitLarge(b *testing.B) {
	scn := largeExample()
	m := valuefit.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AssessComplexity(scn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatcherLarge discovers correspondences at LargeExampleConfig
// scale: dominated by per-column instance profiles (distinct values and
// dominant patterns). Every iteration matches the same two databases.
func BenchmarkMatcherLarge(b *testing.B) {
	scn := largeExample()
	m := match.NewMatcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set := m.Match(scn.Sources[0].DB, scn.Target); len(set.All) == 0 {
			b.Fatal("no correspondences")
		}
	}
}

// BenchmarkMatcherLargeCold is BenchmarkMatcherLarge on fresh copies of
// both databases, cloned outside the timer: the cost of a first Match.
// Beside BenchmarkMatcherLarge it shows whether a Match leaves state on
// the vectors that a later one reads.
func BenchmarkMatcherLargeCold(b *testing.B) {
	scn := largeExample()
	m := match.NewMatcher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		src, tgt := scn.Sources[0].DB.Clone(), scn.Target.Clone()
		b.StartTimer()
		if set := m.Match(src, tgt); len(set.All) == 0 {
			b.Fatal("no correspondences")
		}
	}
}

// BenchmarkDiscoveryLarge reverse-engineers constraints at
// LargeExampleConfig scale: dominated by distinct-set construction and the
// pairwise inclusion-dependency checks. Every iteration reads the same
// database.
func BenchmarkDiscoveryLarge(b *testing.B) {
	db := largeExample().Sources[0].DB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := profile.Discover(db); len(d.PrimaryKeys) == 0 {
			b.Fatal("no keys discovered")
		}
	}
}

// BenchmarkDiscoveryLargeCold is BenchmarkDiscoveryLarge on a fresh copy
// of the database per iteration, cloned outside the timer.
func BenchmarkDiscoveryLargeCold(b *testing.B) {
	src := largeExample().Sources[0].DB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := src.Clone()
		b.StartTimer()
		if d := profile.Discover(db); len(d.PrimaryKeys) == 0 {
			b.Fatal("no keys discovered")
		}
	}
}

// BenchmarkProfileDatabaseLarge profiles every column of the large source
// with a fresh single-worker profiler per iteration (pure kernel cost, no
// cross-iteration memoization of the stats themselves).
func BenchmarkProfileDatabaseLarge(b *testing.B) {
	db := largeExample().Sources[0].DB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.NewProfiler(1).ProfileDatabase(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileDatabaseLargeParallel is BenchmarkProfileDatabaseLarge
// at four workers: ProfileDatabase's fan-out profiles up to four columns
// at once, each in one pass.
func BenchmarkProfileDatabaseLargeParallel(b *testing.B) {
	db := largeExample().Sources[0].DB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.NewProfiler(4).ProfileDatabase(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullEstimateLarge runs the complete two-phase pipeline at
// LargeExampleConfig scale.
func BenchmarkFullEstimateLarge(b *testing.B) {
	scn := largeExample()
	fw := benchFramework()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Estimate(scn, effort.HighQuality); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadDirLarge reloads the large scenario's source and target
// from the directories SaveDir wrote, as cmd/efes does: ParseSchemaText
// plus LoadDir, whose ReadCSV decodes straight into the column vectors.
// Throughput (MB/s) counts the CSV bytes loaded per op.
func BenchmarkLoadDirLarge(b *testing.B) {
	scn := largeExample()
	dir := b.TempDir()
	dbs := []*relational.Database{scn.Target, scn.Sources[0].DB}
	var csvBytes int64
	for i, db := range dbs {
		sub := fmt.Sprintf("%s/%d", dir, i)
		if err := db.SaveDir(sub); err != nil {
			b.Fatal(err)
		}
		for _, t := range db.Schema.Tables() {
			fi, err := os.Stat(filepath.Join(sub, t.Name+".csv"))
			if err != nil {
				b.Fatal(err)
			}
			csvBytes += fi.Size()
		}
	}
	b.SetBytes(csvBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, db := range dbs {
			s, err := relational.ParseSchemaText(db.Schema.String())
			if err != nil {
				b.Fatal(err)
			}
			if err := relational.NewDatabase(s).LoadDir(fmt.Sprintf("%s/%d", dir, j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkScenarioHash content-addresses the paper-scale running
// example as efesd addresses an upload: persist.ScenarioHash over
// databases loaded through LoadDir, so every table is hashed from the
// vectors ReadCSV built. ContentHash memoizes per table, so each
// iteration hashes a fresh load; the loads are not timed. MB/s counts
// the CSV bytes hashed.
func BenchmarkScenarioHash(b *testing.B) {
	scn := scenario.MusicExample(scenario.PaperExampleConfig())
	dir := b.TempDir()
	dbs := []*relational.Database{scn.Target, scn.Sources[0].DB}
	var csvBytes int64
	for i, db := range dbs {
		sub := fmt.Sprintf("%s/%d", dir, i)
		if err := db.SaveDir(sub); err != nil {
			b.Fatal(err)
		}
		for _, t := range db.Schema.Tables() {
			fi, err := os.Stat(filepath.Join(sub, t.Name+".csv"))
			if err != nil {
				b.Fatal(err)
			}
			csvBytes += fi.Size()
		}
	}
	load := func(i int) *relational.Database {
		db := relational.NewDatabase(dbs[i].Schema)
		if err := db.LoadDir(fmt.Sprintf("%s/%d", dir, i)); err != nil {
			b.Fatal(err)
		}
		return db
	}
	b.SetBytes(csvBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		loaded := *scn
		loaded.Target = load(0)
		src := *scn.Sources[0]
		src.DB = load(1)
		loaded.Sources = []*core.Source{&src}
		b.StartTimer()
		if _, err := persist.ScenarioHash(&loaded); err != nil {
			b.Fatal(err)
		}
	}
}

// xlargeExample lazily builds the XLargeExampleConfig scenario (~1M
// songs). Like largeExample, lazy so only the XLarge benchmarks pay the
// generation cost.
var xlargeExample = sync.OnceValue(func() *core.Scenario {
	return scenario.MusicExample(scenario.XLargeExampleConfig())
})

// BenchmarkStructureXLarge runs the structure conflict detector at
// XLargeExampleConfig scale: CSG conversion and violation counting over a
// million-tuple instance, the workload the interned integer-ID instance
// representation targets.
func BenchmarkStructureXLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("XLarge scenario generation is expensive; skipped under -short")
	}
	scn := xlargeExample()
	m := structure.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AssessComplexity(scn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullEstimateXLarge runs the complete two-phase pipeline at
// XLargeExampleConfig scale (~1M songs) — the "single-digit seconds on a
// million tuples" scaling claim.
func BenchmarkFullEstimateXLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("XLarge scenario generation is expensive; skipped under -short")
	}
	scn := xlargeExample()
	fw := benchFramework()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Estimate(scn, effort.HighQuality); err != nil {
			b.Fatal(err)
		}
	}
}

// warmVectors materializes every column vector of db so the profiling
// benches measure the kernels, not the one-time columnar conversion the
// first profile of a database pays.
func warmVectors(db *relational.Database) {
	for _, t := range db.Schema.Tables() {
		for _, c := range t.Columns {
			db.Vector(t.Name, c.Name)
		}
	}
}

// BenchmarkProfileDatabaseXLarge profiles every column of the XLarge
// source (~1M songs) with the exact kernels, single-worker — the
// baseline for the parallel variant below.
func BenchmarkProfileDatabaseXLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("XLarge scenario generation is expensive; skipped under -short")
	}
	db := xlargeExample().Sources[0].DB
	warmVectors(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.NewProfiler(1).ProfileDatabase(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileDatabaseXLargeParallel profiles the XLarge source at
// four workers: identical output bytes, with ProfileDatabase's fan-out
// profiling up to four columns at once, each in one pass.
func BenchmarkProfileDatabaseXLargeParallel(b *testing.B) {
	if testing.Short() {
		b.Skip("XLarge scenario generation is expensive; skipped under -short")
	}
	db := xlargeExample().Sources[0].DB
	warmVectors(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.NewProfiler(4).ProfileDatabase(db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentsParallelGrid evaluates the Figure 6/7 grid with a
// worker pool (the -workers flag of cmd/experiments).
func BenchmarkExperimentsParallelGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp, err := experiments.RunParallel(experiments.DefaultSeed, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		if exp.OverallEfesRMSE <= 0 {
			b.Fatal("degenerate run")
		}
	}
}
