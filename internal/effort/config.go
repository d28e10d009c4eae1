package effort

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// FunctionSpec is a declarative effort-calculation function, so that the
// whole calculator configuration can live in a JSON file (the paper's
// configurability requirement: "intuitive, yet rich configuration settings
// for the estimation process are crucial"; the EFES prototype "offers
// multiple configuration options via an XML file", §6.1).
//
// The effort of a task is
//
//	Constant + PerRepetition·repetitions + Σ_k PerParam[k]·param(k)
//
// optionally piecewise: when param(SwitchParam) < SwitchBelow, the Below
// spec applies instead (Table 9's Convert values uses this).
type FunctionSpec struct {
	// Constant is a fixed effort in minutes.
	Constant float64 `json:"constant,omitempty"`
	// PerRepetition is the effort per task repetition.
	PerRepetition float64 `json:"perRepetition,omitempty"`
	// PerParam maps parameter names to per-unit efforts.
	PerParam map[string]float64 `json:"perParam,omitempty"`
	// SwitchParam, SwitchBelow, and Below define the optional piecewise
	// branch.
	SwitchParam string        `json:"switchParam,omitempty"`
	SwitchBelow float64       `json:"switchBelow,omitempty"`
	Below       *FunctionSpec `json:"below,omitempty"`
}

// Function materializes the spec. The per-parameter contributions are
// summed in sorted parameter order (hoisted out of the closure): a float
// sum in map iteration order would price the same task differently from
// run to run (TaskWriteMapping sums four parameters).
func (s FunctionSpec) Function() Function {
	names := make([]string, 0, len(s.PerParam))
	for name := range s.PerParam {
		names = append(names, name)
	}
	sort.Strings(names)
	return func(t Task) float64 {
		if s.SwitchParam != "" && s.Below != nil && t.Param(s.SwitchParam) < s.SwitchBelow {
			return s.Below.Function()(t)
		}
		m := s.Constant + s.PerRepetition*float64(t.Repetitions)
		for _, name := range names {
			m += s.PerParam[name] * t.Param(name)
		}
		return m
	}
}

// Config is a complete calculator configuration: execution settings plus
// one function spec per task type.
type Config struct {
	// Settings are the execution settings.
	Settings Settings `json:"settings"`
	// Functions maps task types to their effort functions.
	Functions map[TaskType]FunctionSpec `json:"functions"`
}

// DefaultConfig returns the configuration of the paper's experiments:
// DefaultSettings plus the Table-9 function table.
func DefaultConfig() Config {
	return Config{
		Settings: DefaultSettings(),
		Functions: map[TaskType]FunctionSpec{
			TaskMergeValues: {PerRepetition: 3},
			TaskConvertValues: {
				PerParam:    map[string]float64{"dist-vals": 0.25},
				SwitchParam: "dist-vals", SwitchBelow: 120,
				Below: &FunctionSpec{Constant: 30},
			},
			TaskGeneralizeValues:    {PerParam: map[string]float64{"dist-vals": 0.5}},
			TaskRefineValues:        {PerParam: map[string]float64{"values": 0.5}},
			TaskDropValues:          {Constant: 10},
			TaskAddMissingValues:    {PerParam: map[string]float64{"values": 2}},
			TaskCreateTuples:        {Constant: 10},
			TaskDeleteDetachedVals:  {},
			TaskRejectTuples:        {Constant: 5},
			TaskKeepAnyValue:        {Constant: 5},
			TaskAddTuples:           {Constant: 5},
			TaskAggregateTuples:     {Constant: 5},
			TaskSetValuesToNull:     {Constant: 5},
			TaskDeleteDanglingVals:  {Constant: 5},
			TaskAddReferencedValues: {Constant: 5},
			TaskDeleteDanglingTup:   {Constant: 5},
			TaskUnlinkTuples:        {Constant: 5},
			TaskWriteMapping: {PerParam: map[string]float64{
				"FKs": 3, "PKs": 3, "attributes": 1, "tables": 3,
			}},
		},
	}
}

// Calculator materializes the config into a calculator.
func (c Config) Calculator() *Calculator {
	calc := NewCalculator(c.Settings)
	for tt, spec := range c.Functions {
		if c.Settings.MappingTool && tt == TaskWriteMapping {
			continue // the tool override from NewCalculator wins
		}
		calc.SetFunction(tt, spec.Function())
	}
	return calc
}

// TaskTypes lists the configured task types in deterministic order.
func (c Config) TaskTypes() []TaskType {
	out := make([]TaskType, 0, len(c.Functions))
	for tt := range c.Functions {
		out = append(out, tt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteJSON serializes the config.
func (c Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// LoadConfig parses a JSON config. Unknown fields and anything after the
// config object are errors, to catch typos and truncated edits in
// hand-edited files.
func LoadConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("effort: parse config: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == nil:
		return Config{}, errors.New("effort: parse config: data after the config object")
	case err != io.EOF:
		return Config{}, fmt.Errorf("effort: parse config after the config object: %w", err)
	}
	if c.Functions == nil {
		return Config{}, fmt.Errorf("effort: config declares no effort functions")
	}
	// Validate in sorted task-type order so that a config with several
	// problems always reports the same one first. Every branch but the
	// deepest has a below branch, so only the deepest can lack the below
	// branch its switchParam needs.
	for _, tt := range c.TaskTypes() {
		spec, depth := c.Functions[tt], 0
		for spec.Below != nil {
			spec, depth = *spec.Below, depth+1
		}
		if spec.SwitchParam == "" {
			continue
		}
		if depth == 0 {
			return Config{}, fmt.Errorf("effort: config for %q has switchParam but no below branch", tt)
		}
		return Config{}, fmt.Errorf("effort: config for %q has switchParam but no below branch at below depth %d", tt, depth)
	}
	return c, nil
}
