package experiments

import (
	"context"
	"fmt"
	"strings"

	"efes/internal/core"
	"efes/internal/dedup"
	"efes/internal/effort"
	"efes/internal/mapping"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// AblationRow is one framework configuration with its cross-validated
// error over both domains.
type AblationRow struct {
	// Name describes the module configuration.
	Name string
	// Modules lists the active module names.
	Modules []string
	// OverallRMSE is the pooled relative RMSE over all 16 measurements.
	OverallRMSE float64
	// BibliographicRMSE and MusicRMSE are the per-domain errors.
	BibliographicRMSE, MusicRMSE float64
}

// standardFactory builds the paper's three-module framework.
func standardFactory() *core.Framework {
	return core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), valuefit.New())
}

// ablationConfig is one framework configuration of the ablation study.
type ablationConfig struct {
	name string
	fw   *core.Framework
}

func ablationConfigs() []ablationConfig {
	calcWithDedup := effort.NewCalculator(effort.DefaultSettings())
	calcWithDedup.SetFunction(dedup.TaskResolveDuplicates, dedup.DefaultFunction)
	return []ablationConfig{
		{"mapping only", core.New(effort.NewCalculator(effort.DefaultSettings()), mapping.New())},
		{"mapping + structure", core.New(effort.NewCalculator(effort.DefaultSettings()), mapping.New(), structure.New())},
		{"mapping + values", core.New(effort.NewCalculator(effort.DefaultSettings()), mapping.New(), valuefit.New())},
		{"standard (paper)", standardFactory()},
		{"standard + duplicates", core.New(calcWithDedup, mapping.New(), structure.New(), valuefit.New(), dedup.New())},
	}
}

// Ablation evaluates the contribution of each estimation module: it
// re-runs the full cross-validated evaluation with modules removed (and
// once with the optional duplicate-resolution module added) and reports
// the resulting errors. The DESIGN.md ablation: which module pays for its
// complexity? Each configuration runs the evaluation grid of RunResilient
// on up to workers goroutines, with the same output at any worker count,
// and a cancelled context stops the study and returns its error.
func Ablation(ctx context.Context, seed int64, workers int) ([]AblationRow, error) {
	var rows []AblationRow
	for _, cfg := range ablationConfigs() {
		bibRaw, musicRaw, err := runGrid(ctx, cfg.fw, seed, workers)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", cfg.name, err)
		}
		bib := calibrate(musicRaw, bibRaw)
		music := calibrate(bibRaw, musicRaw)
		var measured, efes []float64
		for _, d := range []DomainResult{bib, music} {
			for _, r := range d.Rows {
				measured = append(measured, r.Measured)
				efes = append(efes, r.Efes)
			}
		}
		rows = append(rows, AblationRow{
			Name: cfg.name, Modules: moduleNames(cfg.fw),
			OverallRMSE:       RMSE(measured, efes),
			BibliographicRMSE: bib.EfesRMSE,
			MusicRMSE:         music.EfesRMSE,
		})
	}
	return rows, nil
}

func moduleNames(fw *core.Framework) []string {
	var out []string
	for _, m := range fw.Modules() {
		out = append(out, m.Name())
	}
	return out
}

// RenderAblation renders the ablation table.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %14s %14s\n", "Configuration", "Overall rmse", "Biblio rmse", "Music rmse")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %14.2f %14.2f %14.2f\n", r.Name, r.OverallRMSE, r.BibliographicRMSE, r.MusicRMSE)
	}
	return b.String()
}
