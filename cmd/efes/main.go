// Command efes estimates the integration effort for a scenario stored on
// disk:
//
//	efes -target targetdir -source srcdir [-corr file] [-quality high] \
//	     [-discover] [-augment] [-skill 1.0] [-criticality 1.0] \
//	     [-mapping-tool] [-workers N] [-timeout 30s] [-module-timeout 10s] \
//	     [-retries 2] [-best-effort|-fail-fast] [-csv file] [-cache-dir dir]
//
// Each database directory contains a schema.txt (the format written by
// relational.Schema.String / SaveDir) and one <table>.csv per table. The
// correspondence file holds one correspondence per line:
//
//	clients.full_name -> customers.name     # attribute correspondence
//	clients -> customers                    # table correspondence
//	# comment lines and blank lines are ignored
//
// With -discover, correspondences are found automatically by the schema
// matcher instead. With -augment, data profiling reverse-engineers
// undeclared constraints (keys, NOT NULL, inclusion dependencies) before
// the estimation, per the paper's completeness requirement.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"efes"
	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/mapping"
	"efes/internal/match"
	"efes/internal/persist"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/report"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

func main() {
	targetDir := flag.String("target", "", "directory with the target database (schema.txt + CSVs)")
	sourceDir := flag.String("source", "", "directory with the source database (repeatable via comma)")
	corrFile := flag.String("corr", "", "correspondence file, one per source (comma-separated; omit with -discover)")
	qualityFlag := flag.String("quality", "high", "expected result quality: low or high")
	discover := flag.Bool("discover", false, "discover correspondences with the schema matcher")
	augment := flag.Bool("augment", false, "reverse-engineer undeclared constraints from the data")
	skill := flag.Float64("skill", 1, "practitioner skill factor (>1 slower)")
	criticality := flag.Float64("criticality", 1, "error criticality factor (>1 more careful)")
	mappingTool := flag.Bool("mapping-tool", false, "assume a mapping-generation tool (Example 3.8)")
	configFile := flag.String("config", "", "JSON effort configuration (overrides the Table-9 defaults)")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of text")
	heatmap := flag.Bool("heatmap", false, "append the problem heatmap over the target schema")
	htmlOut := flag.String("html", "", "write a self-contained HTML report (with cost-benefit curve) to FILE")
	writeConfig := flag.String("write-config", "", "write the default effort configuration to FILE and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "number of concurrent module detectors (1 = sequential)")
	csvOut := flag.String("csv", "", "write the result (tasks + failures) as CSV to FILE")
	timeout := flag.Duration("timeout", 0, "overall deadline for the estimation (0 = none)")
	moduleTimeout := flag.Duration("module-timeout", 0, "deadline per module detector attempt (0 = none)")
	retries := flag.Int("retries", 0, "retries per failed module detector")
	bestEffort := flag.Bool("best-effort", false, "degrade on module failure: list it and fall back to the counting baseline")
	failFast := flag.Bool("fail-fast", false, "abort on the first module failure (the default; rejects -best-effort)")
	cacheDir := flag.String("cache-dir", "", "durable cache directory shared with efesd (profiles always; results with -json)")
	flag.Parse()
	if *bestEffort && *failFast {
		fatal(fmt.Errorf("-best-effort and -fail-fast are mutually exclusive"))
	}
	if *retries < 0 {
		fatal(fmt.Errorf("-retries %d is negative", *retries))
	}
	if *writeConfig != "" {
		f, err := os.Create(*writeConfig)
		if err != nil {
			fatal(err)
		}
		if err := effort.DefaultConfig().WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "efes: wrote default configuration to %s\n", *writeConfig)
		return
	}
	if *targetDir == "" || *sourceDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	quality := efes.HighQuality
	switch strings.ToLower(*qualityFlag) {
	case "high", "high-quality":
	case "low", "low-effort":
		quality = efes.LowEffort
	default:
		fatal(fmt.Errorf("unknown quality %q (want low or high)", *qualityFlag))
	}

	target, err := loadDatabase(*targetDir)
	if err != nil {
		fatal(err)
	}
	scn := efes.NewScenario(filepath.Base(*sourceDir)+"-to-"+filepath.Base(*targetDir), target)
	sourceDirs := strings.Split(*sourceDir, ",")
	var corrFiles []string
	if *corrFile != "" {
		corrFiles = strings.Split(*corrFile, ",")
		if len(corrFiles) != len(sourceDirs) {
			fatal(fmt.Errorf("got %d sources but %d correspondence files", len(sourceDirs), len(corrFiles)))
		}
	}
	for srcIdx, dir := range sourceDirs {
		src, err := loadDatabase(dir)
		if err != nil {
			fatal(err)
		}
		if *augment {
			for _, db := range []*efes.Database{src, target} {
				added := profile.AugmentSchema(db, profile.Discover(db))
				if added > 0 {
					fmt.Fprintf(os.Stderr, "efes: discovered %d constraints in %s\n", added, db.Schema.Name)
				}
			}
		}
		var corrs *efes.Correspondences
		switch {
		case *discover:
			corrs = efes.NewMatcher().Match(src, target)
			fmt.Fprintf(os.Stderr, "efes: discovered %d correspondences\n", len(corrs.All))
		case *corrFile != "":
			corrs, err = loadCorrespondences(corrFiles[srcIdx])
			if err != nil {
				fatal(err)
			}
		default:
			fatal(fmt.Errorf("need -corr FILE or -discover"))
		}
		efes.AddSource(scn, filepath.Base(dir), src, corrs)
	}

	var cfg effort.Config
	if *configFile != "" {
		f, err := os.Open(*configFile)
		if err != nil {
			fatal(err)
		}
		cfg, err = effort.LoadConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		cfg = effort.DefaultConfig()
		cfg.Settings.SkillFactor = *skill
		cfg.Settings.Criticality = *criticality
		cfg.Settings.MappingTool = *mappingTool
	}
	calc := cfg.Calculator()

	// The durable cache is shared with efesd: the same content-addressed
	// keys, so a scenario profiled or estimated by either process warms
	// the other. A cache that fails to open degrades to a cold run.
	var cache *persist.Cache
	if *cacheDir != "" {
		c, err := persist.Open(*cacheDir, persist.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "efes: warning: cache disabled: %v\n", err)
		} else {
			cache = c
			defer cache.Close()
		}
	}
	prof := profile.NewProfiler(*workers)
	if cache != nil {
		prof.SetStore(cache.Namespace("stats"))
	}
	vf := valuefit.New()
	vf.Profiler = prof

	// With -json and no side outputs, a warm result cache short-circuits
	// the whole estimation: the stored bytes are the exact bytes a cold
	// run would print (only non-degraded results are ever stored).
	var resultKey string
	if cache != nil && *jsonOut && *csvOut == "" && *htmlOut == "" {
		scnHash, err := persist.ScenarioHash(scn)
		if err != nil {
			fatal(err)
		}
		fp, err := persist.ConfigFingerprint(cfg)
		if err != nil {
			fatal(err)
		}
		resultKey = persist.ResultKey(scnHash, quality, fp, profile.ModeExact)
		if data, ok := cache.Get("results", resultKey); ok {
			fmt.Fprintln(os.Stderr, "efes: result served from cache")
			os.Stdout.Write(data)
			return
		}
	}

	fw := efes.NewFrameworkWith(calc, mapping.New(), structure.New(), vf).
		SetWorkers(*workers).
		SetResilience(efes.Resilience{
			ModuleTimeout: *moduleTimeout,
			Retries:       *retries,
			Backoff:       100 * time.Millisecond,
			BestEffort:    *bestEffort,
		}).
		SetFallback(efes.NewCountingBaseline())
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := fw.EstimateContext(ctx, scn, quality)
	if err != nil {
		fatal(err)
	}
	if res.Degraded() {
		fmt.Fprintf(os.Stderr, "efes: warning: degraded result, %d module(s) failed\n", len(res.Failures))
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "efes: wrote CSV result to %s\n", *csvOut)
	}
	if *htmlOut != "" {
		curve, err := fw.CostBenefit(scn)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*htmlOut)
		if err != nil {
			fatal(err)
		}
		if err := report.Render(f, res, curve); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "efes: wrote HTML report to %s\n", *htmlOut)
	}
	if *jsonOut {
		data, err := res.JSON()
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if resultKey != "" && !res.Degraded() {
			cache.Put("results", resultKey, data)
		}
		os.Stdout.Write(data)
		return
	}
	fmt.Print(res.Summary())
	if *heatmap {
		fmt.Printf("\n--- problem heatmap ---\n%s", core.RenderHeatmap(core.Heatmap(res.Reports)))
	}
	fmt.Printf("\nEstimated effort: %.0f minutes (%.1f hours), source fit score %.4f\n",
		res.TotalMinutes(), res.TotalMinutes()/60, efes.FitScore(res))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "efes:", err)
	os.Exit(1)
}

// loadDatabase reads schema.txt plus per-table CSVs from a directory.
func loadDatabase(dir string) (*efes.Database, error) {
	schemaText, err := os.ReadFile(filepath.Join(dir, "schema.txt"))
	if err != nil {
		return nil, fmt.Errorf("read schema: %w", err)
	}
	s, err := relational.ParseSchemaText(string(schemaText))
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(s)
	if err := db.LoadDir(dir); err != nil {
		return nil, err
	}
	return db, nil
}

// loadCorrespondences parses the line-oriented correspondence format
// (see match.ParseText).
func loadCorrespondences(path string) (*efes.Correspondences, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := match.ParseText(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}
