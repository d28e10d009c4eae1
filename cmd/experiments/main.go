// Command experiments regenerates every table and figure of the paper's
// evaluation:
//
//	experiments -all           # everything
//	experiments -table 3       # one table (1-9)
//	experiments -figure 6      # one figure (4-7)
//	experiments -seed 7        # alternative random seed
//	experiments -small         # test-sized running example (fast)
//	experiments -workers 4     # evaluation-grid and ablation worker pool (same output)
//	experiments -timeout 5m    # overall deadline for the whole run
//	experiments -module-timeout 30s -best-effort   # degrade, don't die
//
// Tables 2, 3, 5, 6, and 8 are produced by running the framework on the
// paper's Figure-2 running example; Figures 6 and 7 run the full two-domain
// evaluation with cross-validated calibration.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"efes/internal/baseline"
	"efes/internal/core"
	"efes/internal/csg"
	"efes/internal/effort"
	"efes/internal/experiments"
	"efes/internal/mapping"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

func main() {
	table := flag.Int("table", 0, "print one paper table (1-9)")
	figure := flag.Int("figure", 0, "print one paper figure (4-7)")
	ablation := flag.Bool("ablation", false, "run the module ablation study")
	sensitivity := flag.Bool("sensitivity", false, "sweep the injected conflict count and compare estimator reactions")
	all := flag.Bool("all", false, "print every table and figure")
	seed := flag.Int64("seed", experiments.DefaultSeed, "random seed for the synthetic datasets")
	small := flag.Bool("small", false, "use the fast, test-sized running example")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker pool size for the figure 6/7 evaluation grid and the ablation study (output is identical for every value)")
	timeout := flag.Duration("timeout", 0, "overall deadline for the run (0 = none)")
	moduleTimeout := flag.Duration("module-timeout", 0, "deadline per module detector attempt (0 = none)")
	bestEffort := flag.Bool("best-effort", false, "degrade on module failure: fall back to the counting baseline")
	failFast := flag.Bool("fail-fast", false, "abort on the first module failure (the default; rejects -best-effort)")
	flag.Parse()

	if !*all && *table == 0 && *figure == 0 && !*ablation && !*sensitivity {
		flag.Usage()
		os.Exit(2)
	}
	if *bestEffort && *failFast {
		fmt.Fprintln(os.Stderr, "experiments: -best-effort and -fail-fast are mutually exclusive")
		os.Exit(2)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	r := &runner{
		seed: *seed, small: *small, workers: *workers, ctx: ctx,
		res: core.Resilience{
			ModuleTimeout: *moduleTimeout,
			Backoff:       100 * time.Millisecond,
			BestEffort:    *bestEffort,
		},
	}
	if *all {
		for t := 1; t <= 9; t++ {
			r.printTable(t)
		}
		for f := 4; f <= 7; f++ {
			r.printFigure(f)
		}
		r.printAblation()
		r.printSensitivity()
		return
	}
	if *ablation {
		r.printAblation()
	}
	if *sensitivity {
		r.printSensitivity()
	}
	if *table != 0 {
		r.printTable(*table)
	}
	if *figure != 0 {
		r.printFigure(*figure)
	}
}

type runner struct {
	seed    int64
	small   bool
	workers int
	ctx     context.Context
	res     core.Resilience

	exampleResultHigh *core.Result
	exampleScenario   *core.Scenario
}

func (r *runner) fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// example lazily builds the running example and its high-quality result.
func (r *runner) example() (*core.Scenario, *core.Result) {
	if r.exampleResultHigh != nil {
		return r.exampleScenario, r.exampleResultHigh
	}
	cfg := scenario.PaperExampleConfig()
	if r.small {
		cfg = scenario.SmallExampleConfig()
	}
	cfg.Seed = r.seed
	scn := scenario.MusicExample(cfg)
	fw := core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), valuefit.New()).SetResilience(r.res)
	if r.res.BestEffort {
		fw.SetFallback(baseline.New())
	}
	res, err := fw.EstimateContext(r.ctx, scn, effort.HighQuality)
	if err != nil {
		r.fatal(err)
	}
	if res.Degraded() {
		fmt.Fprintf(os.Stderr, "experiments: warning: degraded result, %d module(s) failed\n", len(res.Failures))
	}
	r.exampleScenario, r.exampleResultHigh = scn, res
	return scn, res
}

func (r *runner) moduleReport(name string) core.Report {
	_, res := r.example()
	for _, rep := range res.Reports {
		if rep.ModuleName() == name {
			return rep
		}
	}
	r.fatal(fmt.Errorf("no report from module %q", name))
	return nil
}

func (r *runner) printTable(n int) {
	fmt.Printf("===== Table %d =====\n", n)
	switch n {
	case 1:
		fmt.Println("Tasks and effort per attribute from Harden [14]:")
		fmt.Print(baseline.Table1String())
	case 2:
		fmt.Println("Mapping complexity report of the running example:")
		fmt.Print(r.moduleReport(mapping.ModuleName).Summary())
	case 3:
		fmt.Println("Complexity report of the structure conflict detector:")
		fmt.Print(r.moduleReport(structure.ModuleName).Summary())
	case 4:
		fmt.Println("Structural conflicts and their corresponding cleaning tasks:")
		fmt.Print(table4())
	case 5:
		fmt.Println("High-quality structure repair tasks and their estimated effort:")
		r.printCategoryTasks(effort.CategoryCleaningStructure)
	case 6:
		fmt.Println("Complexity report of the value fit detector:")
		fmt.Print(r.moduleReport(valuefit.ModuleName).Summary())
	case 7:
		fmt.Println("Value heterogeneities and corresponding cleaning tasks:")
		fmt.Print(table7())
	case 8:
		fmt.Println("Value transformation tasks and their estimated effort:")
		r.printCategoryTasks(effort.CategoryCleaningValues)
	case 9:
		fmt.Println("Effort calculation functions used for the experiments:")
		fmt.Print(table9())
	default:
		r.fatal(fmt.Errorf("unknown table %d (want 1-9)", n))
	}
	fmt.Println()
}

func (r *runner) printCategoryTasks(cat effort.Category) {
	_, res := r.example()
	fmt.Printf("%-45s %12s %10s\n", "Task", "Repetitions", "Effort")
	total := 0.0
	for _, te := range res.Estimate.Tasks {
		if te.Task.Category != cat {
			continue
		}
		fmt.Printf("%-45s %12d %6.0f min\n", te.Task.String(), te.Task.Repetitions, te.Minutes)
		total += te.Minutes
	}
	fmt.Printf("%-45s %12s %6.0f min\n", "Total", "", total)
}

func table4() string {
	rows := [][3]string{
		{"Not null violated", "Reject tuples", "Add values"},
		{"Unique violated", "Set values to null", "Aggregate tuples"},
		{"Multiple attribute values", "Keep any value", "Aggregate values"},
		{"Value w/o enclosing tuple", "Delete detached values", "Add tuples"},
		{"FK violated", "Delete dangling values", "Add referenced values"},
	}
	out := fmt.Sprintf("%-28s %-24s %-24s\n", "Constraint", "Low effort", "High quality")
	for _, row := range rows {
		out += fmt.Sprintf("%-28s %-24s %-24s\n", row[0], row[1], row[2])
	}
	return out
}

func table7() string {
	rows := [][3]string{
		{"Too few elements", "-", "Add values"},
		{"Different repr. (critical)", "Drop values", "Convert values"},
		{"Different repr. (uncritical)", "-", "Convert values"},
		{"Too specific", "-", "Generalize values"},
		{"Too general", "-", "Refine values"},
	}
	out := fmt.Sprintf("%-30s %-16s %-20s\n", "Value heterogeneity", "Low effort", "High quality")
	for _, row := range rows {
		out += fmt.Sprintf("%-30s %-16s %-20s\n", row[0], row[1], row[2])
	}
	return out
}

func table9() string {
	rows := [][2]string{
		{"Aggregate values", "3 · #repetitions"},
		{"Convert values", "(if #dist-vals < 120) 30, (else) 0.25 · #dist-vals"},
		{"Generalize values", "0.5 · #dist-vals"},
		{"Refine values", "0.5 · #values"},
		{"Drop values", "10"},
		{"Add values", "2 · #values"},
		{"Create enclosing tuples", "10"},
		{"Delete detached values", "0"},
		{"Reject tuples", "5"},
		{"Keep any value", "5"},
		{"Add tuples", "5"},
		{"Aggregate tuples", "5"},
		{"Set values to null", "5"},
		{"Delete dangling values", "5"},
		{"Add referenced values", "5"},
		{"Delete dangling tuples", "5"},
		{"Unlink all but one tuple", "5"},
		{"Write mapping", "3·#FKs + 3·#PKs + #atts + 3·#tables"},
	}
	out := fmt.Sprintf("%-26s %s\n", "Task", "Effort function (mins)")
	for _, row := range rows {
		out += fmt.Sprintf("%-26s %s\n", row[0], row[1])
	}
	return out
}

func (r *runner) printAblation() {
	fmt.Println("===== Ablation: contribution of each estimation module =====")
	rows, err := experiments.Ablation(r.ctx, r.seed, r.workers)
	if err != nil {
		r.fatal(err)
	}
	fmt.Print(experiments.RenderAblation(rows))
	fmt.Println()
}

func (r *runner) printSensitivity() {
	fmt.Println("===== Sensitivity: estimates vs. injected conflicts =====")
	rows, err := experiments.Sensitivity(r.seed, []int{0, 10, 20, 40, 80, 160})
	if err != nil {
		r.fatal(err)
	}
	fmt.Print(experiments.RenderSensitivity(rows))
	fmt.Println()
}

func (r *runner) printFigure(n int) {
	fmt.Printf("===== Figure %d =====\n", n)
	switch n {
	case 4:
		scn, _ := r.example()
		srcGraph, err := csg.FromSchema(scn.Sources[0].DB.Schema)
		if err != nil {
			r.fatal(err)
		}
		tgtGraph, err := csg.FromSchema(scn.Target.Schema)
		if err != nil {
			r.fatal(err)
		}
		fmt.Println("// Source CSG (Graphviz DOT)")
		fmt.Print(srcGraph.DOT())
		fmt.Println("// Target CSG (Graphviz DOT)")
		fmt.Print(tgtGraph.DOT())
	case 5:
		scn, _ := r.example()
		m := structure.New()
		rep, err := m.AssessComplexity(scn)
		if err != nil {
			r.fatal(err)
		}
		_, trace, err := m.PlanWithTrace(rep, effort.HighQuality)
		if err != nil {
			r.fatal(err)
		}
		fmt.Println("Virtual CSG instance simulation (repair side effects):")
		for _, line := range trace {
			fmt.Println("  " + line)
		}
	case 6, 7:
		exp, err := experiments.RunResilient(r.ctx, r.seed, r.workers, r.res)
		if err != nil {
			r.fatal(err)
		}
		if n == 6 {
			fmt.Print(experiments.RenderFigure(exp.Bibliographic))
		} else {
			fmt.Print(experiments.RenderFigure(exp.Music))
		}
		fmt.Printf("overall rmse over both domains: Efes %.2f, Counting %.2f\n",
			exp.OverallEfesRMSE, exp.OverallCountingRMSE)
	default:
		r.fatal(fmt.Errorf("unknown figure %d (want 4-7)", n))
	}
	fmt.Println()
}
