// Package match implements schema matching: the discovery of
// correspondences between source and target schema elements. The paper's
// experiments feed hand-made correspondences into EFES; this package both
// defines the correspondence model and provides an automatic matcher
// (name-, type-, and instance-based) to bootstrap scenarios, following the
// paper's §2 pointer to schema-matching tools and its §7 future-work item
// of dropping the given-correspondences assumption.
package match

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"efes/internal/profile"
	"efes/internal/relational"
)

// Correspondence connects a source schema element with the target schema
// element into which its contents should be integrated (§3.1). A
// correspondence either links two attributes (Column fields set) or two
// relations (Column fields empty).
type Correspondence struct {
	// SourceTable and SourceColumn name the source element.
	SourceTable, SourceColumn string
	// TargetTable and TargetColumn name the target element.
	TargetTable, TargetColumn string
	// Confidence is the matcher's score in (0,1]; hand-made
	// correspondences carry confidence 1.
	Confidence float64
}

// IsTableLevel reports whether the correspondence links two relations
// rather than two attributes.
func (c Correspondence) IsTableLevel() bool {
	return c.SourceColumn == "" && c.TargetColumn == ""
}

// String renders the correspondence as "src -> tgt".
func (c Correspondence) String() string {
	if c.IsTableLevel() {
		return fmt.Sprintf("%s -> %s", c.SourceTable, c.TargetTable)
	}
	return fmt.Sprintf("%s.%s -> %s.%s", c.SourceTable, c.SourceColumn, c.TargetTable, c.TargetColumn)
}

// Set is a collection of correspondences between one source database and
// the target.
type Set struct {
	// All holds every correspondence.
	//
	//efes:bounded one entry per declared correspondence of the scenario definition
	All []Correspondence
}

// Attr adds an attribute correspondence with confidence 1.
func (s *Set) Attr(srcTable, srcCol, tgtTable, tgtCol string) *Set {
	s.All = append(s.All, Correspondence{
		SourceTable: srcTable, SourceColumn: srcCol,
		TargetTable: tgtTable, TargetColumn: tgtCol,
		Confidence: 1,
	})
	return s
}

// Table adds a table-level correspondence with confidence 1.
func (s *Set) Table(srcTable, tgtTable string) *Set {
	s.All = append(s.All, Correspondence{
		SourceTable: srcTable, TargetTable: tgtTable, Confidence: 1,
	})
	return s
}

// AttributePairs returns only the attribute-level correspondences.
func (s *Set) AttributePairs() []Correspondence {
	var out []Correspondence
	for _, c := range s.All {
		if !c.IsTableLevel() {
			out = append(out, c)
		}
	}
	return out
}

// TablePairs returns the table-level correspondences, including those
// implied by attribute correspondences (a source attribute feeding a
// target attribute implies its tables correspond).
func (s *Set) TablePairs() []Correspondence {
	seen := make(map[string]bool)
	var out []Correspondence
	add := func(src, tgt string) {
		key := src + "\x00" + tgt
		if !seen[key] {
			seen[key] = true
			out = append(out, Correspondence{SourceTable: src, TargetTable: tgt, Confidence: 1})
		}
	}
	for _, c := range s.All {
		if c.IsTableLevel() {
			add(c.SourceTable, c.TargetTable)
		}
	}
	for _, c := range s.All {
		if !c.IsTableLevel() {
			add(c.SourceTable, c.TargetTable)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TargetTable != out[j].TargetTable {
			return out[i].TargetTable < out[j].TargetTable
		}
		return out[i].SourceTable < out[j].SourceTable
	})
	return out
}

// ForTarget returns the attribute correspondences into the given target
// table.
func (s *Set) ForTarget(targetTable string) []Correspondence {
	var out []Correspondence
	for _, c := range s.All {
		if !c.IsTableLevel() && c.TargetTable == targetTable {
			out = append(out, c)
		}
	}
	return out
}

// ForTargetColumn returns the attribute correspondences into one target
// column.
func (s *Set) ForTargetColumn(targetTable, targetColumn string) []Correspondence {
	var out []Correspondence
	for _, c := range s.All {
		if !c.IsTableLevel() && c.TargetTable == targetTable && c.TargetColumn == targetColumn {
			out = append(out, c)
		}
	}
	return out
}

// NodeMatch derives the CSG node match (target node ID -> source node ID)
// from the correspondences: table-level pairs map table nodes and
// attribute pairs map attribute nodes. When multiple source tables
// correspond to one target table, the pair supported by the most (and
// strongest) attribute correspondences wins, with explicit table-level
// correspondences dominating; attribute ties go to the higher confidence.
// All remaining ties break lexicographically for determinism.
func (s *Set) NodeMatch() map[string]string {
	type cand struct {
		source string
		score  float64
	}
	best := make(map[string]cand)
	consider := func(targetID, sourceID string, score float64) {
		cur, ok := best[targetID]
		if !ok || score > cur.score || (score == cur.score && sourceID < cur.source) {
			best[targetID] = cand{source: sourceID, score: score}
		}
	}
	// Table nodes: score = Σ attribute-correspondence confidences
	// between the pair, plus a dominating bonus for explicit
	// table-level correspondences.
	tableScore := make(map[string]map[string]float64)
	bump := func(src, tgt string, w float64) {
		if tableScore[tgt] == nil {
			tableScore[tgt] = make(map[string]float64)
		}
		tableScore[tgt][src] += w
	}
	for _, c := range s.All {
		if c.IsTableLevel() {
			bump(c.SourceTable, c.TargetTable, 1000*c.Confidence)
		} else {
			bump(c.SourceTable, c.TargetTable, c.Confidence)
		}
	}
	for tgt, sources := range tableScore {
		for src, score := range sources {
			consider(tgt, src, score)
		}
	}
	for _, c := range s.AttributePairs() {
		consider(c.TargetTable+"."+c.TargetColumn, c.SourceTable+"."+c.SourceColumn, c.Confidence)
	}
	out := make(map[string]string, len(best))
	for tgt, c := range best {
		out[tgt] = c.source
	}
	return out
}

// Matcher discovers correspondences automatically. The composite score of
// an attribute pair combines name similarity, datatype compatibility, and
// instance similarity (value overlap and profile distance), echoing
// standard schema-matching practice [10, 19].
type Matcher struct{}

// The matcher's configuration.
const (
	// threshold is the minimum composite score for a correspondence to
	// be emitted.
	threshold = 0.5
	// nameWeight, typeWeight and instanceWeight weigh the composite
	// score; they sum to 1.
	nameWeight, typeWeight, instanceWeight = 0.5, 0.15, 0.35
	// sampleSize caps the number of distinct values used for instance
	// similarity.
	sampleSize = 1000
)

// NewMatcher returns a Matcher.
func NewMatcher() *Matcher { return &Matcher{} }

// instanceProfile is the per-column data needed by instanceSimilarity,
// profiled once per column and Match call instead of once per candidate
// pair: the (sampled) distinct values rendered as a set, and the dominant
// text pattern. With S source and T target columns, this turns O(S·T)
// distinct-value scans into O(S+T).
type instanceProfile struct {
	set     map[string]struct{}
	pattern string
}

// columnCache memoizes instanceProfiles per column within one Match call.
type columnCache map[string]*instanceProfile

func (c columnCache) get(db *relational.Database, table, column string) *instanceProfile {
	key := table + "\x00" + column
	if p, ok := c[key]; ok {
		return p
	}
	p := profileColumn(db, table, column)
	c[key] = p
	return p
}

// profileColumn computes one column's instance profile (nil when the
// column is unknown or holds no value). It samples the column as its
// sampleSize lexicographically smallest distinct renderings: the
// smallest entries of its text view's dictionary, which holds each
// distinct value once, rendered as FormatValue renders it.
func profileColumn(db *relational.Database, table, column string) *instanceProfile {
	vec := db.Vector(table, column)
	if vec == nil {
		return nil
	}
	text, _ := vec.Coerced(relational.String)
	vs := smallest(text.Dict(), sampleSize)
	if len(vs) == 0 {
		return nil
	}
	set := make(map[string]struct{}, len(vs))
	for _, s := range vs {
		set[s] = struct{}{}
	}
	return &instanceProfile{set: set, pattern: dominantPattern(vs)}
}

// smallest returns the k lexicographically smallest strings of vs in
// ascending order, or all of them when vs holds no more than k. A
// max-heap keeps the k smallest strings seen so far, and a later string
// replaces its root only when it is smaller, so the rest are never
// sorted. vs is read, never reordered: it may be a column's own
// dictionary.
func smallest(vs []string, k int) []string {
	h := slices.Clone(vs[:min(k, len(vs))])
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, s := range vs[len(h):] {
		if len(h) > 0 && s < h[0] {
			h[0] = s
			siftDown(h, 0)
		}
	}
	slices.Sort(h)
	return h
}

// siftDown moves h[i] down the max-heap h until neither child is larger.
func siftDown(h []string, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Match discovers attribute correspondences from a source database into a
// target database. Each target attribute receives at most one source
// attribute (greedy best-first, stable and deterministic), and each source
// attribute maps to at most one target attribute.
func (m *Matcher) Match(source, target *relational.Database) *Set {
	type scored struct {
		c     Correspondence
		score float64
	}
	srcProfiles, tgtProfiles := make(columnCache), make(columnCache)
	var candidates []scored
	for _, st := range source.Schema.Tables() {
		for _, sc := range st.Columns {
			sp := srcProfiles.get(source, st.Name, sc.Name)
			for _, tt := range target.Schema.Tables() {
				for _, tc := range tt.Columns {
					tp := tgtProfiles.get(target, tt.Name, tc.Name)
					score := compositeScore(st, sc, tt, tc, sp, tp)
					if score >= threshold {
						candidates = append(candidates, scored{
							c: Correspondence{
								SourceTable: st.Name, SourceColumn: sc.Name,
								TargetTable: tt.Name, TargetColumn: tc.Name,
								Confidence: score,
							},
							score: score,
						})
					}
				}
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].score != candidates[j].score {
			return candidates[i].score > candidates[j].score
		}
		return candidates[i].c.String() < candidates[j].c.String()
	})
	usedSource := make(map[string]bool)
	usedTarget := make(map[string]bool)
	out := &Set{}
	for _, cand := range candidates {
		srcKey := cand.c.SourceTable + "." + cand.c.SourceColumn
		tgtKey := cand.c.TargetTable + "." + cand.c.TargetColumn
		if usedSource[srcKey] || usedTarget[tgtKey] {
			continue
		}
		usedSource[srcKey] = true
		usedTarget[tgtKey] = true
		out.All = append(out.All, cand.c)
	}
	return out
}

// compositeScore is the weighted score of one attribute pair.
func compositeScore(st *relational.Table, sc relational.Column,
	tt *relational.Table, tc relational.Column, sp, tp *instanceProfile) float64 {
	name := nameSimilarity(sc.Name, tc.Name)
	// Table-name agreement nudges attribute matches between
	// corresponding relations.
	name = 0.8*name + 0.2*nameSimilarity(st.Name, tt.Name)
	typ := typeCompatibility(sc.Type, tc.Type)
	inst := instanceSimilarity(sp, tp)
	return nameWeight*name + typeWeight*typ + instanceWeight*inst
}

// nameSimilarity combines normalized Levenshtein similarity with token
// overlap of snake/camel-case tokens.
func nameSimilarity(a, b string) float64 {
	na, nb := normalizeName(a), normalizeName(b)
	if na == nb {
		return 1
	}
	lev := 1 - float64(levenshtein(na, nb))/float64(maxInt(len(na), len(nb)))
	ta, tb := tokens(a), tokens(b)
	jac := jaccard(ta, tb)
	if jac > lev {
		return jac
	}
	return lev
}

// nameSeparators strips the separators normalizeName ignores. A Replacer
// is safe for concurrent use, so one serves every comparison.
var nameSeparators = strings.NewReplacer("_", "", "-", "", " ", "")

func normalizeName(s string) string {
	return strings.ToLower(nameSeparators.Replace(s))
}

func tokens(s string) map[string]struct{} {
	out := make(map[string]struct{})
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			out[strings.ToLower(string(cur))] = struct{}{}
			cur = nil
		}
	}
	for _, r := range s {
		switch {
		case r == '_' || r == '-' || r == ' ':
			flush()
		case r >= 'A' && r <= 'Z':
			flush()
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return out
}

func jaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for t := range a {
		if _, ok := b[t]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

func levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = minInt(minInt(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func typeCompatibility(a, b relational.Type) float64 {
	if a == b {
		return 1
	}
	numeric := func(t relational.Type) bool { return t == relational.Integer || t == relational.Float }
	switch {
	case numeric(a) && numeric(b):
		return 0.8
	case a == relational.String || b == relational.String:
		return 0.4 // everything casts to string
	default:
		return 0.1
	}
}

// instanceSimilarity blends distinct-value overlap with pattern-profile
// similarity of two memoized column profiles.
func instanceSimilarity(sp, tp *instanceProfile) float64 {
	if sp == nil || tp == nil {
		return 0
	}
	overlap := jaccard(sp.set, tp.set)
	// Pattern-profile similarity: share of values following the same
	// dominant text pattern.
	patternScore := 0.0
	if sp.pattern != "" && sp.pattern == tp.pattern {
		patternScore = 1
	}
	return 0.6*overlap + 0.4*patternScore
}

func dominantPattern(vs []string) string {
	counts := make(map[string]int)
	for _, s := range vs {
		counts[profile.Pattern(s)]++
	}
	best, bestN := "", 0
	for p, n := range counts {
		if n > bestN || (n == bestN && p < best) {
			best, bestN = p, n
		}
	}
	if bestN*2 < len(vs) {
		return "" // no dominant pattern
	}
	return best
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Corrections counts how the user must modify a proposed match result to
// reach the intended result: wrong proposals to delete and missing
// matches to add (the terms of the Melnik et al. [19] accuracy measure).
func Corrections(proposed, intended *Set) (deletions, additions int) {
	key := func(c Correspondence) string { return c.String() }
	prop := make(map[string]struct{})
	for _, c := range proposed.AttributePairs() {
		prop[key(c)] = struct{}{}
	}
	want := make(map[string]struct{})
	for _, c := range intended.AttributePairs() {
		want[key(c)] = struct{}{}
	}
	correct := 0
	for k := range prop {
		if _, ok := want[k]; ok {
			correct++
		}
	}
	return len(prop) - correct, len(want) - correct
}

// CorrespondenceEffort estimates the minutes needed to revise a matcher's
// proposal into the intended correspondences, the §7 future-work item of
// the paper ("the effort for creating quality correspondences cannot be
// completely neglected … the accuracy measure as proposed by Melnik et
// al. [19] seems to be a good starting point"): reviewing the proposal
// costs reviewMinutes per proposed pair, and every deletion or addition
// costs correctionMinutes.
func CorrespondenceEffort(proposed, intended *Set, reviewMinutes, correctionMinutes float64) float64 {
	deletions, additions := Corrections(proposed, intended)
	return reviewMinutes*float64(len(proposed.AttributePairs())) +
		correctionMinutes*float64(deletions+additions)
}

// Accuracy computes the match-quality measure proposed by Melnik et al.
// [19] that the paper's §7 suggests for estimating correspondence-creation
// effort: 1 - (deletions + additions) / |intended|, i.e. how much of the
// proposed match result the user must modify to reach the intended result.
// It returns 0 when the intended set is empty.
func Accuracy(proposed, intended *Set) float64 {
	intendedCount := len(intended.AttributePairs())
	if intendedCount == 0 {
		return 0
	}
	deletions, additions := Corrections(proposed, intended)
	acc := 1 - float64(deletions+additions)/float64(intendedCount)
	if acc < 0 {
		return 0
	}
	return acc
}
