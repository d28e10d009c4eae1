// Package exchange implements the production side of the paper's
// Figure 1: actually performing the integration that EFES only estimates.
// It materializes the scenario's correspondences into target tuples —
// assembling values across source join paths with the same CSG machinery
// the structure detector uses, generating primary keys, and re-keying
// foreign keys — and optionally applies the planned repairs.
//
// Its purpose in this reproduction is verification: integrating naively
// must produce exactly the violations the structure conflict detector
// predicted (the detector reasons about the hypothetical integrated
// instance; the executor builds it), and integrating with high-quality
// repairs must produce a violation-free target. The integration tests in
// this package close that loop.
package exchange

import (
	"fmt"
	"sort"
	"strings"

	"efes/internal/core"
	"efes/internal/csg"
	"efes/internal/relational"
)

// Converter transforms one source value for a target column (e.g.
// milliseconds to "m:ss" strings): the executable form of the value
// transformation planner's Convert values task.
type Converter func(relational.Value) (relational.Value, error)

// Options control how the integration is performed.
type Options struct {
	// Repair applies the high-quality repairs while integrating:
	// enclosing tuples are created for detached values, missing
	// required values are filled with defaults, and multiple values are
	// merged. Without Repair the integration is naive and the conflicts
	// predicted by the structure detector materialize as violations.
	Repair bool
	// Converters maps "table.column" target references to value
	// converters.
	Converters map[string]Converter
	// Defaults maps "table.column" target references to the value used
	// by the Add-missing-values repair. Unlisted columns fall back to a
	// placeholder string or NULL for non-string types.
	Defaults map[string]relational.Value
	// MergeSeparator joins multiple values during the Merge-values
	// repair. Defaults to "; ".
	MergeSeparator string
}

// Outcome reports what the integration did and how the result looks.
type Outcome struct {
	// Result is the integrated target database (the pre-existing target
	// data plus the integrated source data).
	Result *relational.Database
	// InsertedRows counts the integrated tuples per target table.
	InsertedRows map[string]int
	// NullsInserted counts, per "table.column", integrated tuples that
	// received NULL although the column is required — the materialized
	// NotNullViolated conflicts of a naive run.
	NullsInserted map[string]int
	// MultiValueEvents counts, per "table.column", integrated tuples
	// for which the source offered several values — the materialized
	// MultipleValues conflicts.
	MultiValueEvents map[string]int
	// LostEntities counts, per "table.column", distinct source values
	// that did not arrive in the target because no tuple encloses them
	// — the materialized DetachedValue conflicts of a naive run.
	LostEntities map[string]int
	// CreatedTuples counts tuples created by the Create-enclosing-tuple
	// repair per target table.
	CreatedTuples map[string]int
	// Violations are the constraint violations of the result.
	Violations []relational.Violation
}

// Integrate performs the integration of every source into (a clone of)
// the target database.
func Integrate(scn *core.Scenario, opts Options) (*Outcome, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if opts.MergeSeparator == "" {
		opts.MergeSeparator = "; "
	}
	out := &Outcome{
		Result:           scn.Target.Clone(),
		InsertedRows:     make(map[string]int),
		NullsInserted:    make(map[string]int),
		MultiValueEvents: make(map[string]int),
		LostEntities:     make(map[string]int),
		CreatedTuples:    make(map[string]int),
	}
	for _, src := range scn.Sources {
		if err := integrateSource(scn, src, opts, out); err != nil {
			return nil, err
		}
	}
	out.Violations = out.Result.Validate()
	return out, nil
}

// run carries the state of one source's integration.
type run struct {
	scn  *core.Scenario
	src  *core.Source
	opts Options
	out  *Outcome

	srcGraph *csg.Graph
	srcInst  *csg.Interned
	match    csg.NodeMatch

	// keyMaps maps, per target table, the driving source tuple element
	// to the generated key value.
	keyMaps map[string]map[string]int64
	// nextKey holds the key counters per target table.
	nextKey map[string]int64
	// consumed records, per "table.column", the raw source values that
	// were materialized into the result (pre-conversion), for
	// lost-entity accounting.
	consumed map[string]map[string]struct{}
}

func integrateSource(scn *core.Scenario, src *core.Source, opts Options, out *Outcome) error {
	srcGraph, err := csg.FromSchema(src.DB.Schema)
	if err != nil {
		return err
	}
	srcInst, err := csg.FromDatabaseInterned(srcGraph, src.DB)
	if err != nil {
		return err
	}
	r := &run{
		scn: scn, src: src, opts: opts, out: out,
		srcGraph: srcGraph, srcInst: srcInst,
		match:    csg.NodeMatch(src.Correspondences.NodeMatch()),
		keyMaps:  make(map[string]map[string]int64),
		nextKey:  make(map[string]int64),
		consumed: make(map[string]map[string]struct{}),
	}
	for _, table := range integrationOrder(scn.Target.Schema, r.match) {
		if err := r.integrateTable(table); err != nil {
			return err
		}
	}
	return nil
}

// integrationOrder sorts the target tables receiving data so that
// referenced tables are integrated before their referencing tables
// (re-keying needs the generated keys). Cyclic dependencies fall back to
// name order.
func integrationOrder(s *relational.Schema, match csg.NodeMatch) []string {
	var tables []string
	for _, t := range s.Tables() {
		if _, ok := match[t.Name]; ok {
			tables = append(tables, t.Name)
		}
	}
	sort.Strings(tables)
	// Kahn-style ordering on the FK graph restricted to these tables.
	inSet := make(map[string]bool, len(tables))
	for _, t := range tables {
		inSet[t] = true
	}
	deps := make(map[string]map[string]bool)
	for _, t := range tables {
		deps[t] = make(map[string]bool)
		for _, fk := range s.ForeignKeysOf(t) {
			if inSet[fk.RefTable] && fk.RefTable != t {
				deps[t][fk.RefTable] = true
			}
		}
	}
	var order []string
	done := make(map[string]bool)
	for len(order) < len(tables) {
		progressed := false
		for _, t := range tables {
			if done[t] {
				continue
			}
			ready := true
			for dep := range deps[t] {
				if !done[dep] {
					ready = false
					break
				}
			}
			if ready {
				order = append(order, t)
				done[t] = true
				progressed = true
			}
		}
		if !progressed { // cycle: emit the remaining tables in name order
			for _, t := range tables {
				if !done[t] {
					order = append(order, t)
					done[t] = true
				}
			}
		}
	}
	return order
}

// integrateTable builds one target tuple per driving source tuple.
func (r *run) integrateTable(table string) error {
	driver := r.srcGraph.Node(r.match[table])
	if driver == nil || driver.Kind != csg.TableNode {
		return nil // no driving source table: nothing to integrate
	}
	t := r.scn.Target.Schema.Table(table)
	cols := t.Columns
	plan, err := r.columnPlans(table, cols)
	if err != nil {
		return err
	}
	for _, driverElem := range r.srcInst.Elements(driver) {
		row := make([]relational.Value, len(cols))
		for i, col := range cols {
			v, err := r.evalColumn(table, col, plan[i], driverElem)
			if err != nil {
				return err
			}
			row[i] = v
		}
		if err := r.insert(table, driverElem, cols, row); err != nil {
			return err
		}
	}
	r.trackLostEntities(table, cols, plan)
	return nil
}

// columnKind classifies how one target column is populated.
type columnKind int

const (
	colNull      columnKind = iota // no source, no generation
	colGenerated                   // generated key
	colRekeyed                     // FK into a generated key
	colPath                        // copied along a matched source path
)

// columnPlan is the per-column integration strategy.
type columnPlan struct {
	kind columnKind
	// path leads from the driving tuple to the source values (colPath)
	// or to the driving tuples of the referenced table (colRekeyed).
	path csg.Path
	// refTable is the referenced target table for colRekeyed.
	refTable string
}

func (r *run) columnPlans(table string, cols []relational.Column) ([]columnPlan, error) {
	s := r.scn.Target.Schema
	driverID := r.match[table]
	plans := make([]columnPlan, len(cols))
	for i, col := range cols {
		// Generated keys: single-column unique attributes without a
		// correspondence.
		_, matched := r.match[csg.AttributeNodeID(table, col.Name)]
		if !matched && s.Unique(table, col.Name) {
			plans[i] = columnPlan{kind: colGenerated}
			continue
		}
		// Re-keyed foreign keys into generated keys.
		if refTable, ok := rekeyedRef(s, table, col.Name, r.match); ok {
			refDriverID, hasDriver := r.match[refTable]
			if hasDriver {
				from := r.srcGraph.Node(driverID)
				to := r.srcGraph.Node(refDriverID)
				path := csg.BestPath(csg.FindPaths(r.srcGraph, from, to, csg.MaxPathLength))
				if path != nil {
					plans[i] = columnPlan{kind: colRekeyed, path: path, refTable: refTable}
					continue
				}
			}
			plans[i] = columnPlan{kind: colNull}
			continue
		}
		if matched {
			from := r.srcGraph.Node(driverID)
			to := r.srcGraph.Node(r.match[csg.AttributeNodeID(table, col.Name)])
			path := csg.BestPath(csg.FindPaths(r.srcGraph, from, to, csg.MaxPathLength))
			if path != nil {
				plans[i] = columnPlan{kind: colPath, path: path}
				continue
			}
		}
		plans[i] = columnPlan{kind: colNull}
	}
	return plans, nil
}

// rekeyedRef reports whether the column is a foreign key into a target
// table whose key is generated, returning that table.
func rekeyedRef(s *relational.Schema, table, column string, match csg.NodeMatch) (string, bool) {
	for _, fk := range s.ForeignKeysOf(table) {
		for i, c := range fk.Columns {
			if c != column {
				continue
			}
			refCol := fk.RefColumns[i]
			if _, matched := match[csg.AttributeNodeID(fk.RefTable, refCol)]; !matched && s.Unique(fk.RefTable, refCol) {
				return fk.RefTable, true
			}
		}
	}
	return "", false
}

// evalColumn produces the value of one column for one driving tuple.
func (r *run) evalColumn(table string, col relational.Column, plan columnPlan, driverElem string) (relational.Value, error) {
	ref := table + "." + col.Name
	switch plan.kind {
	case colGenerated:
		return r.generateKey(table, driverElem), nil
	case colRekeyed:
		targets := csg.AtomicRel{P: plan.path}.Links(r.srcInst, driverElem)
		sort.Strings(targets)
		if len(targets) == 0 {
			r.noteNullIfRequired(table, col.Name)
			return nil, nil
		}
		if len(targets) > 1 {
			r.out.MultiValueEvents[ref]++
		}
		key, ok := r.keyMaps[plan.refTable][targets[0]]
		if !ok {
			r.noteNullIfRequired(table, col.Name)
			return nil, nil
		}
		return key, nil
	case colPath:
		values := csg.AtomicRel{P: plan.path}.Links(r.srcInst, driverElem)
		sort.Strings(values)
		return r.materialize(table, col, values)
	default:
		r.noteNullIfRequired(table, col.Name)
		return nil, nil
	}
}

// materialize turns the collected source values into one target value,
// applying merge/convert/default logic per the options.
func (r *run) materialize(table string, col relational.Column, values []string) (relational.Value, error) {
	ref := table + "." + col.Name
	if len(values) == 0 {
		if r.opts.Repair && r.scn.Target.Schema.NotNull(table, col.Name) {
			return r.defaultValue(table, col), nil
		}
		r.noteNullIfRequired(table, col.Name)
		return nil, nil
	}
	if len(values) > 1 {
		r.out.MultiValueEvents[ref]++
		if r.opts.Repair {
			for _, v := range values {
				r.consume(ref, v)
			}
			return strings.Join(values, r.opts.MergeSeparator), nil
		}
	}
	// Naive integration keeps only the first value; co-values are lost.
	r.consume(ref, values[0])
	var v relational.Value = values[0]
	if conv, ok := r.opts.Converters[ref]; ok {
		converted, err := conv(v)
		if err != nil {
			return nil, fmt.Errorf("exchange: convert %s: %w", ref, err)
		}
		return converted, nil
	}
	coerced, err := relational.Coerce(col.Type, v)
	if err != nil {
		// Incompatible representation: a naive run drops the value (the
		// critical heterogeneity of §5), a repairing run without a
		// converter cannot do better either.
		r.noteNullIfRequired(table, col.Name)
		return nil, nil
	}
	return coerced, nil
}

// defaultValue yields the Add-missing-values repair value.
func (r *run) defaultValue(table string, col relational.Column) relational.Value {
	if v, ok := r.opts.Defaults[table+"."+col.Name]; ok {
		return v
	}
	if col.Type == relational.String {
		return "(unknown)"
	}
	return nil
}

// consume records a materialized raw source value.
func (r *run) consume(ref, value string) {
	if r.consumed[ref] == nil {
		r.consumed[ref] = make(map[string]struct{})
	}
	r.consumed[ref][value] = struct{}{}
}

func (r *run) noteNullIfRequired(table, column string) {
	if r.scn.Target.Schema.NotNull(table, column) {
		r.out.NullsInserted[table+"."+column]++
	}
}

// generateKey allocates the next key for a table and records the driving
// element's mapping for later re-keying.
func (r *run) generateKey(table, driverElem string) int64 {
	if r.nextKey[table] == 0 {
		max := int64(0)
		t := r.scn.Target.Schema.Table(table)
		for _, row := range r.scn.Target.Rows(table) {
			for i, col := range t.Columns {
				if !r.scn.Target.Schema.Unique(table, col.Name) {
					continue
				}
				if n, ok := row[i].(int64); ok && n > max {
					max = n
				}
			}
		}
		r.nextKey[table] = max + 1
	}
	key := r.nextKey[table]
	r.nextKey[table]++
	if r.keyMaps[table] == nil {
		r.keyMaps[table] = make(map[string]int64)
	}
	r.keyMaps[table][driverElem] = key
	return key
}

// insert appends the row, tolerating coercion by Insert itself.
func (r *run) insert(table, driverElem string, cols []relational.Column, row []relational.Value) error {
	if err := r.out.Result.Insert(table, row...); err != nil {
		return fmt.Errorf("exchange: integrate %s (driver %s): %w", table, driverElem, err)
	}
	r.out.InsertedRows[table]++
	return nil
}

// trackLostEntities finds, per matched attribute of the table, distinct
// source values that were never materialized into a tuple: the
// detached values (and, in naive runs, the co-values of multi-valued
// attributes). With Repair, enclosing tuples are created for them
// instead.
func (r *run) trackLostEntities(table string, cols []relational.Column, plans []columnPlan) {
	t := r.scn.Target.Schema.Table(table)
	for i, col := range cols {
		if plans[i].kind != colPath {
			continue
		}
		srcAttrID, ok := r.match[csg.AttributeNodeID(table, col.Name)]
		if !ok {
			continue
		}
		srcAttr := r.srcGraph.Node(srcAttrID)
		if srcAttr == nil {
			continue
		}
		ref := table + "." + col.Name
		colIdx := t.ColumnIndex(col.Name)
		for _, v := range r.srcInst.Elements(srcAttr) {
			if _, ok := r.consumed[ref][v]; ok {
				continue
			}
			if r.opts.Repair {
				r.createEnclosingTuple(table, t, colIdx, v)
				r.out.CreatedTuples[table]++
				continue
			}
			r.out.LostEntities[ref]++
		}
	}
}

// createEnclosingTuple materializes the Create-enclosing-tuple repair: a
// new tuple carrying the detached value, a generated key where needed,
// and defaults for other required attributes (the Figure-5 cascade,
// executed).
func (r *run) createEnclosingTuple(table string, t *relational.Table, valueIdx int, value string) {
	row := make([]relational.Value, len(t.Columns))
	for i, col := range t.Columns {
		switch {
		case i == valueIdx:
			coerced, err := relational.Coerce(col.Type, value)
			if err == nil {
				row[i] = coerced
			}
		case r.scn.Target.Schema.Unique(table, col.Name):
			row[i] = r.generateKey(table, fmt.Sprintf("repair:%s:%s", table, value))
		case r.scn.Target.Schema.NotNull(table, col.Name):
			row[i] = r.defaultValue(table, col)
		}
	}
	if err := r.out.Result.Insert(table, row...); err == nil {
		r.out.InsertedRows[table]++
	}
}
