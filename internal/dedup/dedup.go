// Package dedup implements an optional fourth estimation module for
// duplicate-resolution effort. The paper motivates it in §3.1 ("all
// sources might be free of duplicates, but there still might be target
// duplicates when they are combined [22]; these conflicts can also arise
// between source data and pre-existing target data") and discusses in §2
// how the crowdsourced entity-resolution estimate of Wang et al. [25] —
// whose cost depends on the number of candidate comparisons and on how
// candidates are grouped — "fits well into our effort model".
//
// The module is not part of the paper's evaluated configuration; it ships
// as the reference example of the framework's extensibility and is
// exercised by the ablation study in internal/experiments.
package dedup

import (
	"fmt"
	"sort"
	"strings"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/relational"
)

// Candidate is one group of potentially duplicate entities: a value of an
// identifying attribute that appears both in the source and in the
// pre-existing target data (or several times within the combined data).
type Candidate struct {
	// Source names the source database contributing the duplicates.
	Source string
	// Entity is the target table holding the entity.
	Entity string
	// Attribute is the identifying target attribute.
	Attribute string
	// Pairs is the number of record comparisons the practitioner must
	// review for this entity type.
	Pairs int
}

// Report is the dedup module's data complexity report.
type Report struct {
	// Candidates holds one entry per (source, entity, attribute) with
	// duplicate suspects.
	Candidates []Candidate
	// EntitiesChecked counts the identifying attributes inspected.
	EntitiesChecked int
}

// ModuleName implements core.Report.
func (r *Report) ModuleName() string { return ModuleName }

// ProblemCount implements core.Report.
func (r *Report) ProblemCount() int {
	n := 0
	for _, c := range r.Candidates {
		n += c.Pairs
	}
	return n
}

// Summary renders the report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %s\n", "Duplicate candidates", "Comparisons")
	for _, c := range r.Candidates {
		fmt.Fprintf(&b, "%-40s %11d\n", fmt.Sprintf("%s.%s (from %s)", c.Entity, c.Attribute, c.Source), c.Pairs)
	}
	fmt.Fprintf(&b, "(%d identifying attributes checked)\n", r.EntitiesChecked)
	return b.String()
}

// ProblemSites implements core.ProblemLocator.
func (r *Report) ProblemSites() []core.ProblemSite {
	var out []core.ProblemSite
	for _, c := range r.Candidates {
		out = append(out, core.ProblemSite{Table: c.Entity, Attribute: c.Attribute, Count: c.Pairs})
	}
	return out
}

// ModuleName is the module's registered name.
const ModuleName = "duplicates"

// TaskResolveDuplicates is the module's cleaning task: reviewing and
// merging candidate duplicate pairs. Register an effort function for it
// (DefaultFunction) before pricing plans from this module.
const TaskResolveDuplicates effort.TaskType = "Resolve duplicates"

// DefaultFunction prices duplicate resolution following Wang et al. [25]:
// grouped candidate pairs cost a fraction of a minute each, plus a
// constant for setting up the comparison batches. For a low-effort result
// ("auto" parameter set) the pairs are merged mechanically — keep any
// representative — which is considerably cheaper per pair.
func DefaultFunction(t effort.Task) float64 {
	if t.Param("auto") > 0 {
		return 2 + 0.12*t.Param("pairs")
	}
	return 5 + 0.4*t.Param("pairs")
}

// Module is the duplicate-resolution estimation module.
type Module struct{}

// minGroupSize is the smallest number of equal identifying values that
// counts as a duplicate group (2 = any repetition).
const minGroupSize = 2

// New creates the module.
func New() *Module { return &Module{} }

// Name implements core.Module.
func (m *Module) Name() string { return ModuleName }

// AssessComplexity implements core.Module: for every correspondence into
// an identifying target attribute (a non-key string attribute of an
// entity table), it pools the normalized source and pre-existing target
// values and counts the pairwise comparisons within equal-value groups.
func (m *Module) AssessComplexity(s *core.Scenario) (core.Report, error) {
	report := &Report{}
	for _, src := range s.Sources {
		for _, corr := range src.Correspondences.AttributePairs() {
			if !m.identifying(s.Target.Schema, corr.TargetTable, corr.TargetColumn) {
				continue
			}
			report.EntitiesChecked++
			pairs, err := duplicatePairs(src.DB, corr.SourceTable, corr.SourceColumn,
				s.Target, corr.TargetTable, corr.TargetColumn)
			if err != nil {
				return nil, err
			}
			if pairs >= minGroupSize-1 {
				report.Candidates = append(report.Candidates, Candidate{
					Source: src.Name, Entity: corr.TargetTable,
					Attribute: corr.TargetColumn, Pairs: pairs,
				})
			}
		}
	}
	sort.Slice(report.Candidates, func(i, j int) bool {
		a, b := report.Candidates[i], report.Candidates[j]
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Entity != b.Entity {
			return a.Entity < b.Entity
		}
		return a.Attribute < b.Attribute
	})
	return report, nil
}

// identifying selects the attributes worth deduplicating on: string-typed,
// not generated (no key or FK columns), in a table that has a primary key
// (an entity, not a link table).
func (m *Module) identifying(s *relational.Schema, table, column string) bool {
	t := s.Table(table)
	if t == nil {
		return false
	}
	col, ok := t.Column(column)
	if !ok || col.Type != relational.String {
		return false
	}
	pk, hasPK := s.PrimaryKeyOf(table)
	if !hasPK || len(pk.Columns) != 1 {
		return false // link tables (composite keys) hold no entities
	}
	if s.Unique(table, column) {
		return false // already deduplicated by constraint
	}
	for _, fk := range s.ForeignKeysOf(table) {
		for _, c := range fk.Columns {
			if c == column {
				return false
			}
		}
	}
	return true
}

// duplicatePairs counts the candidate comparisons for one identifying
// attribute. Only *distinct* values matter — the same name appearing in
// many rows is a repeated reference, not a duplicate entity. A comparison
// arises when distinct raw values collide under normalization within one
// database (spelling variants of one entity), or when a normalized value
// occurs in both databases (the same entity arriving twice after
// integration, §3.1).
func duplicatePairs(src *relational.Database, st, sc string,
	tgt *relational.Database, tt, tc string) (int, error) {

	groups := func(db *relational.Database, table, column string) (map[string]int, error) {
		vec := db.Vector(table, column)
		if vec == nil {
			return nil, fmt.Errorf("dedup: unknown column %s.%s", table, column)
		}
		// The text view's dictionary holds each distinct value once,
		// rendered as FormatValue renders it.
		text, _ := vec.Coerced(relational.String)
		out := make(map[string]int)
		for _, s := range text.Dict() {
			out[normalize(s)]++
		}
		return out, nil
	}
	srcGroups, err := groups(src, st, sc)
	if err != nil {
		return 0, err
	}
	tgtGroups, err := groups(tgt, tt, tc)
	if err != nil {
		return 0, err
	}
	pairs := 0
	for _, n := range srcGroups {
		pairs += n * (n - 1) / 2 // spelling variants within the source
	}
	for _, n := range tgtGroups {
		pairs += n * (n - 1) / 2 // pre-existing variants in the target
	}
	for g := range srcGroups {
		if _, both := tgtGroups[g]; both {
			pairs++ // the entity arrives a second time
		}
	}
	return pairs, nil
}

// normalize folds case and whitespace so that trivially different
// spellings land in one candidate group.
func normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// PlanTasks implements core.Module. A high-quality result reviews every
// candidate group by hand; a low-effort result merges them mechanically
// (keep any representative), which is cheaper but still takes time.
func (m *Module) PlanTasks(r core.Report, q effort.Quality) ([]effort.Task, error) {
	rep, ok := r.(*Report)
	if !ok {
		return nil, fmt.Errorf("dedup: foreign report type %T", r)
	}
	var tasks []effort.Task
	for _, c := range rep.Candidates {
		params := map[string]float64{"pairs": float64(c.Pairs)}
		if q == effort.LowEffort {
			params["auto"] = 1
		}
		tasks = append(tasks, effort.Task{
			Type:        TaskResolveDuplicates,
			Category:    effort.CategoryCleaningStructure,
			Quality:     q,
			Subject:     c.Entity + "." + c.Attribute,
			Repetitions: c.Pairs,
			Params:      params,
		})
	}
	return tasks, nil
}
