// Package efes is a Go implementation of EFES, the extensible effort
// estimation framework for data integration and cleaning projects from
// "Estimating Data Integration and Cleaning Effort" (Kruse, Papotti,
// Naumann — EDBT 2015).
//
// Given a data integration scenario — one or more source databases, a
// target database, and correspondences between their schema elements —
// EFES estimates, without performing the integration, how much human work
// the integration will take, and reports the concrete problems that cause
// the effort:
//
//	scn := efes.NewScenario("my-integration", targetDB)
//	scn.AddSource("crm-dump", sourceDB, corrs)
//	fw := efes.NewFramework(efes.DefaultSettings())
//	result, err := fw.Estimate(scn, efes.HighQuality)
//	// result.Estimate: priced task list with per-category breakdown
//	// result.Reports:  per-module data complexity reports
//
// The estimation runs in two phases (paper §3): an objective complexity
// assessment based only on schemas and instances, and a context-dependent
// effort estimation driven by configurable effort-calculation functions
// and execution settings. Three estimation modules ship with the
// framework — mapping complexity, structural conflicts (via
// cardinality-constrained schema graphs, §4), and value heterogeneities
// (§5) — and custom modules can be plugged in via the Module interface.
package efes

import (
	"efes/internal/baseline"
	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/exchange"
	"efes/internal/mapping"
	"efes/internal/match"
	"efes/internal/relational"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// Re-exported scenario model.
type (
	// Scenario is a data integration scenario: sources, target, and
	// correspondences.
	Scenario = core.Scenario
	// Source is one source database with its correspondences into the
	// target.
	Source = core.Source
	// Result is the outcome of an estimation run: complexity reports
	// plus the priced effort estimate.
	Result = core.Result
	// Report is a module's data complexity report.
	Report = core.Report
	// Module is an estimation module: a data complexity detector
	// paired with a task planner.
	Module = core.Module
	// Framework wires estimation modules to an effort calculator.
	Framework = core.Framework
	// CostBenefitCurve is the effort-vs-quality trade-off of a scenario
	// (the cost-benefit graphs of the paper's §7).
	CostBenefitCurve = core.CostBenefitCurve
	// CostBenefitPoint is one point of a cost-benefit curve.
	CostBenefitPoint = core.CostBenefitPoint
)

// Re-exported resilience layer (see Framework.SetResilience and the
// context-aware entry points Framework.AssessComplexityContext and
// Framework.EstimateContext).
type (
	// Resilience configures per-module deadlines, retry-with-backoff,
	// and best-effort degradation for a framework.
	Resilience = core.Resilience
	// ModuleFailure records one module that failed during a
	// best-effort run; Result.Failures lists them.
	ModuleFailure = core.ModuleFailure
	// PanicError is a detector or planner panic recovered by the
	// isolation layer.
	PanicError = core.PanicError
	// FallbackEstimator replaces a failed module's effort contribution
	// (NewFramework wires in the attribute-counting baseline).
	FallbackEstimator = core.FallbackEstimator
	// ContextModule is the optional interface for cancellation-aware
	// module detectors.
	ContextModule = core.ContextModule
)

// Re-exported effort model.
type (
	// Quality is the expected quality of the integration result.
	Quality = effort.Quality
	// Task is one unit of work proposed by a task planner.
	Task = effort.Task
	// TaskEffort is a priced task within an estimate.
	TaskEffort = effort.TaskEffort
	// Estimate is a priced task list.
	Estimate = effort.Estimate
	// Settings models the execution settings: practitioner skill, tool
	// automation, error criticality.
	Settings = effort.Settings
	// Calculator prices tasks with per-type effort functions.
	Calculator = effort.Calculator
	// Category is an effort breakdown bucket.
	Category = effort.Category
	// Config is a JSON-serializable calculator configuration: execution
	// settings plus one declarative effort-function spec per task type.
	Config = effort.Config
	// Progress tracks the execution of an estimated project and
	// recalibrates the remaining-effort projection as tasks complete
	// (the §1 monitoring application).
	Progress = effort.Progress
	// FunctionSpec is a declarative effort-calculation function.
	FunctionSpec = effort.FunctionSpec
)

// Expected result qualities (paper §3.4).
const (
	// LowEffort favors cheap repairs such as removing tuples.
	LowEffort = effort.LowEffort
	// HighQuality favors value-preserving repairs such as updates.
	HighQuality = effort.HighQuality
)

// Effort breakdown categories (the stacked bars of the paper's figures).
const (
	CategoryMapping           = effort.CategoryMapping
	CategoryCleaningStructure = effort.CategoryCleaningStructure
	CategoryCleaningValues    = effort.CategoryCleaningValues
)

// Re-exported relational substrate.
type (
	// Schema is a relational schema: tables plus constraints.
	Schema = relational.Schema
	// Table is a relation declaration.
	Table = relational.Table
	// Column is an attribute declaration.
	Column = relational.Column
	// Database is an instance of a schema.
	Database = relational.Database
	// Value is a single cell value; nil is SQL NULL.
	Value = relational.Value
	// Constraint is a declarative schema constraint.
	Constraint = relational.Constraint
	// PrimaryKey declares a primary key.
	PrimaryKey = relational.PrimaryKey
	// ForeignKey declares a foreign key.
	ForeignKey = relational.ForeignKey
	// NotNull declares a NOT NULL constraint.
	NotNull = relational.NotNullConstraint
	// Unique declares a uniqueness constraint.
	Unique = relational.UniqueConstraint
	// Type is a column datatype.
	Type = relational.Type
)

// Column datatypes.
const (
	String  = relational.String
	Integer = relational.Integer
	Float   = relational.Float
	Bool    = relational.Bool
	Time    = relational.Time
)

// Re-exported correspondence model and matcher.
type (
	// Correspondences is a set of source-to-target element
	// correspondences.
	Correspondences = match.Set
	// Correspondence links one source element to one target element.
	Correspondence = match.Correspondence
	// Matcher discovers correspondences automatically.
	Matcher = match.Matcher
)

// NewSchema creates an empty relational schema.
func NewSchema(name string) *Schema { return relational.NewSchema(name) }

// NewTable creates a table declaration; column names must be unique.
func NewTable(name string, cols ...Column) (*Table, error) {
	return relational.NewTable(name, cols...)
}

// MustTable is NewTable but panics on error.
func MustTable(name string, cols ...Column) *Table {
	return relational.MustTable(name, cols...)
}

// NewDatabase creates an empty instance of a schema.
func NewDatabase(s *Schema) *Database { return relational.NewDatabase(s) }

// NewScenario creates a scenario with the given target database.
func NewScenario(name string, target *Database) *Scenario {
	return &Scenario{Name: name, Target: target}
}

// AddSource is a convenience for appending a source to a scenario.
func AddSource(s *Scenario, name string, db *Database, corrs *Correspondences) {
	s.Sources = append(s.Sources, &Source{Name: name, DB: db, Correspondences: corrs})
}

// NewCorrespondences creates an empty correspondence set; populate it with
// its Attr and Table methods, or discover correspondences with NewMatcher.
func NewCorrespondences() *Correspondences { return &match.Set{} }

// NewMatcher creates an automatic schema matcher.
func NewMatcher() *Matcher { return match.NewMatcher() }

// DefaultSettings returns the execution settings used in the paper's
// experiments: manual SQL, a basic admin tool, a practitioner familiar
// with SQL but not with the data.
func DefaultSettings() Settings { return effort.DefaultSettings() }

// NewCalculator creates an effort calculator with the paper's Table-9
// effort functions under the given settings.
func NewCalculator(s Settings) *Calculator { return effort.NewCalculator(s) }

// NewProgress creates a progress tracker over an estimate's task list.
func NewProgress(est *Estimate) *Progress { return effort.NewProgress(est) }

// DefaultConfig returns the declarative form of the paper's Table-9
// configuration; serialize it with Config.WriteJSON and reload edited
// files with effort.LoadConfig (or the cmd/efes -config flag).
func DefaultConfig() Config { return effort.DefaultConfig() }

// NewFramework assembles the full EFES framework with the three standard
// estimation modules (mapping, structural conflicts, value
// heterogeneities), the Table-9 effort functions, and the
// attribute-counting baseline as the best-effort fallback estimator (used
// only when a Resilience policy with BestEffort is set and a module
// fails).
func NewFramework(s Settings) *Framework {
	return core.New(effort.NewCalculator(s), StandardModules()...).SetFallback(baseline.New())
}

// NewFrameworkWith assembles a framework with a custom calculator and
// module list (the paper's extensibility requirement).
func NewFrameworkWith(calc *Calculator, modules ...Module) *Framework {
	return core.New(calc, modules...)
}

// StandardModules returns fresh instances of the three estimation modules
// described in the paper.
func StandardModules() []Module {
	return []Module{mapping.New(), structure.New(), valuefit.New()}
}

// NewCountingBaseline returns the attribute-counting estimator of
// Harden [14] that the paper evaluates against.
func NewCountingBaseline() *baseline.Counting { return baseline.New() }

// FitScore ranks how well a source fits the target for source selection:
// higher is better.
func FitScore(r *Result) float64 { return core.FitScore(r) }

// HeatmapEntry is one row of the problem heatmap (the data-visualization
// application of §3.3).
type HeatmapEntry = core.HeatmapEntry

// Heatmap aggregates the problems of all module reports onto the target
// schema elements they concern, hottest first.
func Heatmap(reports []Report) []HeatmapEntry { return core.Heatmap(reports) }

// RenderHeatmap renders the heatmap as text.
func RenderHeatmap(entries []HeatmapEntry) string { return core.RenderHeatmap(entries) }

// Integration execution (the production side of the paper's Figure 1).
type (
	// IntegrationOptions control how Integrate performs the
	// integration: naive or with the high-quality repairs applied.
	IntegrationOptions = exchange.Options
	// IntegrationOutcome reports what the integration did and the
	// remaining constraint violations.
	IntegrationOutcome = exchange.Outcome
	// Converter transforms one source value for a target column (the
	// executable Convert-values task).
	Converter = exchange.Converter
)

// Integrate actually performs the integration that the framework
// estimates: it assembles target tuples along the correspondences'
// source paths, generates keys, re-keys foreign keys, and optionally
// applies the high-quality repairs. Naive execution materializes the
// detector-predicted conflicts as violations; repaired execution yields a
// clean target.
func Integrate(s *Scenario, opts IntegrationOptions) (*IntegrationOutcome, error) {
	return exchange.Integrate(s, opts)
}
