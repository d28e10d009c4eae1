package effort

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

func TestDefaultConfigMatchesTable9(t *testing.T) {
	// The declarative config and the calculator built from it must
	// price every known task like the original Table-9 functions.
	calc := DefaultConfig().Calculator()
	reference := NewCalculator(DefaultSettings())
	tasks := []Task{
		{Type: TaskMergeValues, Repetitions: 503},
		{Type: TaskConvertValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 100}},
		{Type: TaskConvertValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 260923}},
		{Type: TaskGeneralizeValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 40}},
		{Type: TaskRefineValues, Repetitions: 1, Params: map[string]float64{"values": 10}},
		{Type: TaskDropValues, Repetitions: 1},
		{Type: TaskAddMissingValues, Repetitions: 102, Params: map[string]float64{"values": 102}},
		{Type: TaskCreateTuples, Repetitions: 1},
		{Type: TaskDeleteDetachedVals, Repetitions: 7},
		{Type: TaskRejectTuples, Repetitions: 3},
		{Type: TaskAddTuples, Repetitions: 102},
		{Type: TaskWriteMapping, Repetitions: 1, Params: map[string]float64{"tables": 3, "attributes": 2, "PKs": 1, "FKs": 1}},
	}
	for _, task := range tasks {
		a, err := calc.Price(HighQuality, []Task{task})
		if err != nil {
			t.Fatalf("config calc: %v", err)
		}
		b, err := reference.Price(HighQuality, []Task{task})
		if err != nil {
			t.Fatalf("reference calc: %v", err)
		}
		if a.Total() != b.Total() {
			t.Errorf("%s: config %v != reference %v", task.Type, a.Total(), b.Total())
		}
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	c := DefaultConfig()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(&buf)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	if len(loaded.Functions) != len(c.Functions) {
		t.Fatalf("functions = %d, want %d", len(loaded.Functions), len(c.Functions))
	}
	// The reloaded config prices like the original.
	task := Task{Type: TaskConvertValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 260923}}
	a, _ := c.Calculator().Price(HighQuality, []Task{task})
	b, _ := loaded.Calculator().Price(HighQuality, []Task{task})
	if a.Total() != b.Total() {
		t.Errorf("round-tripped config prices %v, want %v", b.Total(), a.Total())
	}
	if loaded.Settings.SkillFactor != 1 {
		t.Errorf("settings lost: %+v", loaded.Settings)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	bad := []string{
		``,
		`{`,
		`{"settings":{},"functions":{"X":{"switchParam":"n"}}}`, // switch without below
		`{"settings":{},"bogusField":1,"functions":{"X":{}}}`,   // unknown field
		`{"settings":{}}`, // no functions
		`{"settings":{},"functions":{"X":{"switchParam":"n","below":{"switchParam":"m"}}}}`, // nested switch without below
		`{"functions":{"X":{}}} {"garbage":`,                                                // trailing data
	}
	for _, text := range bad {
		if _, err := LoadConfig(strings.NewReader(text)); err == nil {
			t.Errorf("LoadConfig(%q) should fail", text)
		}
	}
}

func TestCustomConfig(t *testing.T) {
	text := `{
	  "settings": {"SkillFactor": 2, "Criticality": 1},
	  "functions": {
	    "Reject tuples": {"constant": 8},
	    "Custom audit": {"perRepetition": 1.5, "perParam": {"columns": 0.5}}
	  }
	}`
	c, err := LoadConfig(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	calc := c.Calculator()
	est, err := calc.Price(LowEffort, []Task{
		{Type: TaskRejectTuples, Repetitions: 1},
		{Type: "Custom audit", Repetitions: 4, Params: map[string]float64{"columns": 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// (8 + 1.5·4 + 0.5·6) · skill 2 = (8 + 6 + 3)·2 = 34.
	if got := est.Total(); got != 34 {
		t.Errorf("custom config total = %v, want 34", got)
	}
}

func TestConfigTaskTypesSorted(t *testing.T) {
	types := DefaultConfig().TaskTypes()
	if len(types) != 18 {
		t.Fatalf("task types = %d, want 18 (Table 9 rows)", len(types))
	}
	for i := 1; i < len(types); i++ {
		if types[i-1] >= types[i] {
			t.Fatalf("task types not sorted: %v", types)
		}
	}
}

func TestConfigMappingToolOverride(t *testing.T) {
	c := DefaultConfig()
	c.Settings.MappingTool = true
	calc := c.Calculator()
	est, err := calc.Price(HighQuality, []Task{
		{Type: TaskWriteMapping, Repetitions: 1, Params: map[string]float64{"tables": 9, "PKs": 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Total(); got != 2 {
		t.Errorf("mapping-tool override lost in config path: %v", got)
	}
}

// TestLoadConfigReadErrorAfterObject: a read error after a complete
// config object is returned wrapped, not reported as trailing data.
func TestLoadConfigReadErrorAfterObject(t *testing.T) {
	boom := errors.New("disk gone")
	r := io.MultiReader(strings.NewReader(`{"functions":{"X":{}}}`), iotest.ErrReader(boom))
	_, err := LoadConfig(r)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap %v", err, boom)
	}
	if strings.Contains(err.Error(), "data after") {
		t.Errorf("read error reported as trailing data: %v", err)
	}
}

// fuzzTasks is the fixed task list FuzzLoadConfig prices: Table 9 types
// with parameters on both sides of Convert values' switch, a type no
// default covers, and one whose parameter names a seed config switches on.
var fuzzTasks = []Task{
	{Type: TaskMergeValues, Repetitions: 503},
	{Type: TaskConvertValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 100}},
	{Type: TaskConvertValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 260923}},
	{Type: TaskRejectTuples, Repetitions: 3},
	{Type: TaskWriteMapping, Repetitions: 1, Params: map[string]float64{"tables": 3, "attributes": 2, "PKs": 1, "FKs": 1}},
	{Type: "X", Repetitions: 2, Params: map[string]float64{"n": 5, "m": 1}},
	{Type: "Custom audit", Repetitions: 4, Params: map[string]float64{"columns": 6}},
}

// FuzzLoadConfig feeds LoadConfig arbitrary bytes. It must never panic,
// and a config it accepts must load again from its own WriteJSON output
// and price every task of fuzzTasks identically at both qualities. The
// seed corpus is in testdata/fuzz/FuzzLoadConfig.
func FuzzLoadConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted config: %v", err)
		}
		again, err := LoadConfig(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("LoadConfig rejects WriteJSON's output: %v\n%s", err, buf.Bytes())
		}
		calc, calcAgain := c.Calculator(), again.Calculator()
		for _, q := range []Quality{LowEffort, HighQuality} {
			for _, task := range fuzzTasks {
				want, wantErr := calc.Price(q, []Task{task})
				got, gotErr := calcAgain.Price(q, []Task{task})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: error %v before the round trip, %v after", task.Type, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				// WriteJSON omits zero fields, negative zero too, so a
				// -0 loads again as +0. That can flip only the sign of a
				// zero result, and == treats the two zeros as equal.
				w, g := want.Total(), got.Total()
				if w != g && !(math.IsNaN(w) && math.IsNaN(g)) {
					t.Fatalf("%s: priced %v before the round trip, %v after", task.Type, w, g)
				}
			}
		}
	})
}
