package core

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The export DTOs give downstream tooling (dashboards, project planning,
// the paper's source-selection and data-visualization applications) a
// stable JSON view of an estimation result.

// ResultExport is the serializable form of a Result.
type ResultExport struct {
	// Scenario is the analyzed scenario's name.
	Scenario string `json:"scenario"`
	// Quality is the expected result quality ("low eff." / "high qual.").
	Quality string `json:"quality"`
	// TotalMinutes is the overall estimate.
	TotalMinutes float64 `json:"totalMinutes"`
	// Breakdown maps effort categories to minutes.
	Breakdown map[string]float64 `json:"breakdown"`
	// Problems is the total problem count over all modules.
	Problems int `json:"problems"`
	// FitScore is the source-selection fit (higher is better).
	FitScore float64 `json:"fitScore"`
	// Reports carries one entry per module.
	Reports []ReportExport `json:"reports"`
	// Tasks is the priced task list.
	Tasks []TaskExport `json:"tasks"`
	// Degraded reports whether any module failed and the estimate
	// contains fallback contributions.
	Degraded bool `json:"degraded,omitempty"`
	// Failures lists the failed modules of a best-effort run, in module
	// registration order.
	Failures []FailureExport `json:"failures,omitempty"`
}

// FailureExport is the serializable form of a ModuleFailure.
type FailureExport struct {
	Module          string  `json:"module"`
	Stage           string  `json:"stage"`
	Error           string  `json:"error"`
	Attempts        int     `json:"attempts"`
	FallbackMinutes float64 `json:"fallbackMinutes"`
}

// ReportExport is the serializable form of a module report.
type ReportExport struct {
	Module   string `json:"module"`
	Problems int    `json:"problems"`
	Summary  string `json:"summary"`
}

// TaskExport is the serializable form of a priced task.
type TaskExport struct {
	Type        string             `json:"type"`
	Category    string             `json:"category"`
	Subject     string             `json:"subject,omitempty"`
	Repetitions int                `json:"repetitions"`
	Params      map[string]float64 `json:"params,omitempty"`
	Minutes     float64            `json:"minutes"`
}

// Export converts the result into its serializable form.
func (r *Result) Export() ResultExport {
	out := ResultExport{
		Scenario:     r.Scenario,
		Quality:      r.Estimate.Quality.String(),
		TotalMinutes: r.Estimate.Total(),
		Breakdown:    make(map[string]float64),
		Problems:     r.ProblemCount(),
		FitScore:     FitScore(r),
	}
	for cat, mins := range r.Estimate.ByCategory() {
		out.Breakdown[string(cat)] = mins
	}
	for _, rep := range r.Reports {
		out.Reports = append(out.Reports, ReportExport{
			Module:   rep.ModuleName(),
			Problems: rep.ProblemCount(),
			Summary:  rep.Summary(),
		})
	}
	for _, te := range r.Estimate.Tasks {
		out.Tasks = append(out.Tasks, TaskExport{
			Type:        string(te.Task.Type),
			Category:    string(te.Task.Category),
			Subject:     te.Task.Subject,
			Repetitions: te.Task.Repetitions,
			Params:      te.Task.Params,
			Minutes:     te.Minutes,
		})
	}
	out.Degraded = r.Degraded()
	for _, mf := range r.Failures {
		msg := ""
		if mf.Err != nil {
			msg = mf.Err.Error()
		}
		out.Failures = append(out.Failures, FailureExport{
			Module:          mf.Module,
			Stage:           mf.Stage,
			Error:           msg,
			Attempts:        mf.Attempts,
			FallbackMinutes: mf.FallbackMinutes,
		})
	}
	return out
}

// JSON renders the result as indented JSON.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Export(), "", "  ")
}

// WriteCSV renders the result as CSV for spreadsheet tooling: one "task"
// row per priced task and, for degraded runs, one "failure" row per failed
// module. The row order (tasks in estimate order, failures in module
// registration order) and every field are deterministic.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "scenario", "category", "type", "subject", "repetitions", "minutes", "detail"}); err != nil {
		return err
	}
	mins := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	for _, te := range r.Estimate.Tasks {
		err := cw.Write([]string{
			"task", r.Scenario, string(te.Task.Category), string(te.Task.Type),
			te.Task.Subject, strconv.Itoa(te.Task.Repetitions), mins(te.Minutes), "",
		})
		if err != nil {
			return err
		}
	}
	for _, mf := range r.Failures {
		detail := fmt.Sprintf("%s failed after %d attempt(s)", mf.Stage, mf.Attempts)
		if mf.Err != nil {
			detail += ": " + mf.Err.Error()
		}
		err := cw.Write([]string{
			"failure", r.Scenario, "", mf.Module, "", "0", mins(mf.FallbackMinutes), detail,
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
