package profile

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"efes/internal/relational"
)

// Discovery holds constraints reverse-engineered from an instance: the
// paper's §3.1 completeness requirement ("techniques for schema reverse
// engineering and data profiling can reconstruct missing schema
// descriptions and constraints from the data").
type Discovery struct {
	// NotNull lists columns without any NULL value.
	NotNull []relational.ColumnRef
	// Unique lists columns whose non-NULL values are all distinct.
	Unique []relational.ColumnRef
	// PrimaryKeys maps each table to its best single-column key
	// candidate (unique, not-null, name-biased), if any.
	PrimaryKeys map[string]relational.ColumnRef
	// Inclusions lists unary inclusion dependencies: every non-NULL
	// value of Dependent appears in Referenced.
	Inclusions []Inclusion
}

// Inclusion is a unary inclusion dependency Dependent ⊆ Referenced.
type Inclusion struct {
	Dependent  relational.ColumnRef
	Referenced relational.ColumnRef
}

// MinRowsForDiscovery guards against vacuous discoveries on tiny tables:
// a table with fewer rows provides too little evidence for uniqueness or
// inclusion dependencies.
const MinRowsForDiscovery = 1

// Discover reverse-engineers constraints from the instance. Only
// single-column constraints are discovered; this matches the constraint
// classes expressible in CSGs (§4.1) that the framework consumes.
func Discover(db *relational.Database) *Discovery {
	d := &Discovery{PrimaryKeys: make(map[string]relational.ColumnRef)}
	type colInfo struct {
		ref relational.ColumnRef
		typ relational.Type
		// The column's distinct values, sorted and duplicate-free: the
		// substrate of the inclusion merge-joins. An integer column
		// keeps its int64s (ints); any other column keeps its
		// renderings, a sorted copy of its text view's dictionary
		// (strs). Inclusion compares columns of one type only, and an
		// integer's rendering is injective, so both decide inclusion
		// as the renderings would.
		ints     []int64
		strs     []string
		distinct int
		unique   bool
		notNull  bool
	}
	var cols []*colInfo
	for _, t := range db.Schema.Tables() {
		if db.NumRows(t.Name) < MinRowsForDiscovery {
			continue
		}
		vecs := db.Vectors(t.Name)
		for ci, c := range t.Columns {
			vec := vecs[ci]
			info := &colInfo{
				ref:     relational.ColumnRef{Table: t.Name, Column: c.Name},
				typ:     c.Type,
				notNull: vec.NullCount() == 0,
			}
			if c.Type == relational.Integer {
				info.ints = distinctInts(vec)
				info.distinct = len(info.ints)
			} else {
				// A string column is its own text view: sort a copy.
				text, _ := vec.Coerced(relational.String)
				info.strs = slices.Clone(text.Dict())
				slices.Sort(info.strs)
				info.distinct = len(info.strs)
			}
			nonNull := vec.Len() - vec.NullCount()
			info.unique = nonNull > 0 && info.distinct == nonNull
			cols = append(cols, info)
		}
	}
	for _, info := range cols {
		if info.notNull {
			d.NotNull = append(d.NotNull, info.ref)
		}
		if info.unique {
			d.Unique = append(d.Unique, info.ref)
		}
	}
	// Primary key candidates: unique AND not-null; prefer id-ish names,
	// then earlier columns.
	byTable := make(map[string][]*colInfo)
	for _, info := range cols {
		if info.unique && info.notNull {
			byTable[info.ref.Table] = append(byTable[info.ref.Table], info)
		}
	}
	for table, candidates := range byTable {
		sort.Slice(candidates, func(i, j int) bool {
			si, sj := keyNameScore(candidates[i].ref.Column), keyNameScore(candidates[j].ref.Column)
			if si != sj {
				return si > sj
			}
			return candidates[i].ref.Column < candidates[j].ref.Column
		})
		d.PrimaryKeys[table] = candidates[0].ref
	}
	// Unary inclusion dependencies into unique columns (FK candidates).
	for _, dep := range cols {
		if dep.distinct == 0 {
			continue
		}
		for _, ref := range cols {
			if dep == ref || !ref.unique || dep.typ != ref.typ {
				continue
			}
			if dep.ref.Table == ref.ref.Table && dep.ref.Column == ref.ref.Column {
				continue
			}
			// One of the two pairs is empty: the columns share a type.
			if containsAllSorted(ref.ints, dep.ints) && containsAllSorted(ref.strs, dep.strs) {
				d.Inclusions = append(d.Inclusions, Inclusion{Dependent: dep.ref, Referenced: ref.ref})
			}
		}
	}
	sort.Slice(d.Inclusions, func(i, j int) bool {
		a, b := d.Inclusions[i], d.Inclusions[j]
		if a.Dependent.String() != b.Dependent.String() {
			return a.Dependent.String() < b.Dependent.String()
		}
		return a.Referenced.String() < b.Referenced.String()
	})
	return d
}

// distinctInts returns the distinct non-NULL values of an integer column,
// sorted.
func distinctInts(vec *relational.ColumnVector) []int64 {
	keys := make([]int64, 0, vec.Len()-vec.NullCount())
	for i, x := range vec.Ints() {
		if !vec.Null(i) {
			keys = append(keys, x)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// containsAllSorted reports whether every element of sub also appears in
// super. Both slices are sorted and duplicate-free, so a single linear
// merge (with endpoint quick-rejects) decides inclusion — no hash probes,
// and disjoint ranges reject in O(1).
func containsAllSorted[T cmp.Ordered](super, sub []T) bool {
	if len(sub) > len(super) {
		return false
	}
	if len(sub) == 0 {
		return true
	}
	if sub[0] < super[0] || sub[len(sub)-1] > super[len(super)-1] {
		return false
	}
	j := 0
	for _, s := range sub {
		for j < len(super) && super[j] < s {
			j++
		}
		if j >= len(super) || super[j] != s {
			return false
		}
		j++
	}
	return true
}

// isUnique reports whether the column was discovered unique.
func isUnique(d *Discovery, ref relational.ColumnRef) bool {
	for _, u := range d.Unique {
		if u == ref {
			return true
		}
	}
	return false
}

// tableStem reduces a table name to a singular-ish lowercase stem for
// name-affinity checks (e.g. "artists" -> "artist").
func tableStem(table string) string {
	stem := strings.TrimSuffix(strings.ToLower(table), "s")
	if len(stem) < 3 {
		return strings.ToLower(table)
	}
	return stem
}

// keyNameScore ranks column names by how much they look like a key.
func keyNameScore(name string) int {
	n := strings.ToLower(name)
	switch {
	case n == "id":
		return 3
	case strings.HasSuffix(n, "_id") || strings.HasSuffix(n, "id"):
		return 2
	case strings.Contains(n, "key") || strings.Contains(n, "code"):
		return 1
	default:
		return 0
	}
}

// AugmentSchema adds discovered constraints to the schema, skipping any
// that are already declared. It returns the number of constraints added.
// This implements the paper's completeness requirement: business rules
// enforced only at the application level become visible to the estimator.
func AugmentSchema(db *relational.Database, d *Discovery) int {
	s := db.Schema
	added := 0
	// Add discovered primary keys in sorted table order: constraints land
	// in the schema's constraint list in insertion order, and Validate()
	// reports violations in that order, so map-order insertion would leak
	// into the report output.
	tables := make([]string, 0, len(d.PrimaryKeys))
	for table := range d.PrimaryKeys {
		tables = append(tables, table)
	}
	sort.Strings(tables)
	for _, table := range tables {
		ref := d.PrimaryKeys[table]
		if _, has := s.PrimaryKeyOf(table); !has {
			if s.AddConstraint(relational.PrimaryKey{Table: table, Columns: []string{ref.Column}}) == nil {
				added++
			}
		}
	}
	for _, ref := range d.NotNull {
		if !s.NotNull(ref.Table, ref.Column) {
			if s.AddConstraint(relational.NotNullConstraint{Table: ref.Table, Column: ref.Column}) == nil {
				added++
			}
		}
	}
	for _, ref := range d.Unique {
		if !s.Unique(ref.Table, ref.Column) {
			if s.AddConstraint(relational.UniqueConstraint{Table: ref.Table, Columns: []string{ref.Column}}) == nil {
				added++
			}
		}
	}
	declared := make(map[string]struct{})
	for _, fk := range s.ForeignKeys() {
		if len(fk.Columns) == 1 {
			declared[fk.Table+"."+fk.Columns[0]+">"+fk.RefTable+"."+fk.RefColumns[0]] = struct{}{}
		}
	}
	for _, inc := range d.Inclusions {
		// Only adopt inclusions into discovered or declared keys of
		// *other* tables as foreign keys.
		if inc.Dependent.Table == inc.Referenced.Table {
			continue
		}
		pk, ok := d.PrimaryKeys[inc.Referenced.Table]
		if !ok || pk != inc.Referenced {
			continue
		}
		// Guard against spurious inclusions between dense integer
		// serials (every id range includes every shorter one): the
		// dependent column must not itself be a key, and its name must
		// show some affinity to a reference — an id-ish suffix or the
		// referenced table's name stem.
		if isUnique(d, inc.Dependent) {
			continue
		}
		if keyNameScore(inc.Dependent.Column) == 0 &&
			!strings.Contains(strings.ToLower(inc.Dependent.Column), tableStem(inc.Referenced.Table)) {
			continue
		}
		key := inc.Dependent.String() + ">" + inc.Referenced.String()
		if _, has := declared[key]; has {
			continue
		}
		fk := relational.ForeignKey{
			Table: inc.Dependent.Table, Columns: []string{inc.Dependent.Column},
			RefTable: inc.Referenced.Table, RefColumns: []string{inc.Referenced.Column},
		}
		if s.AddConstraint(fk) == nil {
			added++
		}
	}
	return added
}
