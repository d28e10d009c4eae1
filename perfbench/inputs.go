package main

// Workload inputs: generated scenarios, their efesd upload bodies, and
// the in-process reference answers every served byte is checked against.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/mapping"
	"efes/internal/match"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// evalPairs are the eight evaluation scenarios of the paper's §6.
var evalPairs = [][2]string{
	{"s1", "s2"}, {"s1", "s3"}, {"s3", "s4"}, {"s4", "s4"},
	{"f1", "m2"}, {"m1", "d2"}, {"m1", "f2"}, {"d1", "d2"},
}

// evalScenario generates one evaluation pair at a generator seed.
func evalScenario(pair [2]string, seed int64) (*core.Scenario, error) {
	if strings.HasPrefix(pair[0], "s") {
		return scenario.BibliographicScenario(pair[0], pair[1], seed)
	}
	return scenario.MusicScenario(pair[0], pair[1], seed)
}

// dbSpec, sourceSpec and uploadRequest mirror the POST /v1/scenarios body.
type dbSpec struct {
	Schema string            `json:"schema"`
	Tables map[string]string `json:"tables"`
}

type sourceSpec struct {
	Name string `json:"name"`
	dbSpec
	Correspondences string `json:"correspondences,omitempty"`
}

type uploadRequest struct {
	Name    string       `json:"name"`
	Target  dbSpec       `json:"target"`
	Sources []sourceSpec `json:"sources"`
}

func renderDB(db *relational.Database) (dbSpec, error) {
	spec := dbSpec{Schema: db.Schema.String(), Tables: map[string]string{}}
	for _, t := range db.Schema.Tables() {
		var buf bytes.Buffer
		if err := db.WriteCSV(t.Name, &buf); err != nil {
			return dbSpec{}, err
		}
		spec.Tables[t.Name] = buf.String()
	}
	return spec, nil
}

// renderUpload converts a scenario into an upload body under name.
func renderUpload(name string, scn *core.Scenario) ([]byte, error) {
	req := uploadRequest{Name: name}
	var err error
	if req.Target, err = renderDB(scn.Target); err != nil {
		return nil, err
	}
	for _, src := range scn.Sources {
		spec, err := renderDB(src.DB)
		if err != nil {
			return nil, err
		}
		var corr bytes.Buffer
		if err := src.Correspondences.WriteText(&corr); err != nil {
			return nil, err
		}
		req.Sources = append(req.Sources, sourceSpec{Name: src.Name, dbSpec: spec, Correspondences: corr.String()})
	}
	return json.Marshal(req)
}

// loadSpec parses an uploaded database the way the daemon does: schema
// text, then the CSV bodies in sorted table order.
func loadSpec(spec dbSpec) (*relational.Database, error) {
	schema, err := relational.ParseSchemaText(spec.Schema)
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(schema)
	names := make([]string, 0, len(spec.Tables))
	for n := range spec.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := db.ReadCSV(n, strings.NewReader(spec.Tables[n])); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// parseUpload rebuilds, in process, the scenario an upload body describes.
func parseUpload(body []byte) (*core.Scenario, error) {
	var req uploadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	target, err := loadSpec(req.Target)
	if err != nil {
		return nil, err
	}
	scn := &core.Scenario{Name: req.Name, Target: target}
	for _, s := range req.Sources {
		db, err := loadSpec(s.dbSpec)
		if err != nil {
			return nil, err
		}
		corrs, err := match.ParseText(strings.NewReader(s.Correspondences))
		if err != nil {
			return nil, err
		}
		scn.Sources = append(scn.Sources, &core.Source{Name: s.Name, DB: db, Correspondences: corrs})
	}
	return scn, nil
}

// newFramework assembles the standard framework over a fresh profiler,
// the way cmd/efes and efesd do.
func newFramework(workers int) *core.Framework {
	vf := valuefit.New()
	vf.Profiler = profile.NewProfiler(workers)
	return core.New(effort.DefaultConfig().Calculator(), mapping.New(), structure.New(), vf).SetWorkers(workers)
}

// referenceJSON estimates scn in process and returns the exact bytes
// efesd serves for it (Result.JSON plus a newline).
func referenceJSON(scn *core.Scenario, q effort.Quality) ([]byte, *core.Result, error) {
	res, err := newFramework(1).EstimateContext(context.Background(), scn, q)
	if err != nil {
		return nil, nil, err
	}
	data, err := res.JSON()
	if err != nil {
		return nil, nil, err
	}
	return append(data, '\n'), res, nil
}

// verifyMatch adds one /v1/match answer to t, checked against the
// matcher run in process on scn's first source.
func verifyMatch(t *tally, body []byte, scn *core.Scenario) error {
	set := match.NewMatcher().Match(scn.Sources[0].DB, scn.Target)
	var buf bytes.Buffer
	if err := set.WriteText(&buf); err != nil {
		return err
	}
	var got struct {
		Count int    `json:"count"`
		Text  string `json:"text"`
	}
	t.attempted++
	if json.Unmarshal(body, &got) != nil || got.Count != len(set.All) || got.Text != buf.String() {
		t.wrongByte++
	}
	return nil
}

// writeScenarioDir stores a single-source scenario the way cmd/genscenario
// does: target/ and source/ database directories plus a correspondence
// file.
func writeScenarioDir(dir string, scn *core.Scenario) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := scn.Target.SaveDir(filepath.Join(dir, "target")); err != nil {
		return err
	}
	src := scn.Sources[0]
	if err := src.DB.SaveDir(filepath.Join(dir, "source")); err != nil {
		return err
	}
	var corr bytes.Buffer
	if err := src.Correspondences.WriteText(&corr); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "corrs.txt"), corr.Bytes(), 0o644)
}

// loadDir reads a database directory as cmd/efes does.
func loadDir(dir string) (*relational.Database, error) {
	text, err := os.ReadFile(filepath.Join(dir, "schema.txt"))
	if err != nil {
		return nil, fmt.Errorf("read schema: %w", err)
	}
	s, err := relational.ParseSchemaText(string(text))
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(s)
	if err := db.LoadDir(dir); err != nil {
		return nil, err
	}
	return db, nil
}

// loadScenarioDir reads a scenario written by writeScenarioDir, naming it
// as cmd/efes does.
func loadScenarioDir(dir string) (*core.Scenario, error) {
	target, err := loadDir(filepath.Join(dir, "target"))
	if err != nil {
		return nil, err
	}
	src, err := loadDir(filepath.Join(dir, "source"))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, "corrs.txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	corrs, err := match.ParseText(f)
	if err != nil {
		return nil, err
	}
	return &core.Scenario{
		Name:    "source-to-target",
		Target:  target,
		Sources: []*core.Source{{Name: "source", DB: src, Correspondences: corrs}},
	}, nil
}
