package exp

import (
	"fmt"

	"github.com/fxrz-go/fxrz/internal/core"
)

// ImportanceResult reports the permutation importance of the model inputs
// for the default frameworks — the model-side complement of Table II: the
// features the forest actually leans on when mapping (features, ACR) to an
// error configuration.
type ImportanceResult struct {
	// Imp[app][compressor] aligns with core.InputNames.
	Imp   map[string]map[string][]float64
	Names []string
}

// Importance measures per-(app, compressor) importances with SZ and ZFP.
func Importance(s *Session) (*ImportanceResult, error) {
	res := &ImportanceResult{Imp: map[string]map[string][]float64{}, Names: core.InputNames}
	for _, app := range Apps {
		res.Imp[app] = map[string][]float64{}
		for _, comp := range []string{"sz", "zfp"} {
			fw, err := s.Framework(app, comp, s.Config())
			if err != nil {
				return nil, err
			}
			imp, err := fw.FeatureImportance(3, 11)
			if err != nil {
				return nil, err
			}
			res.Imp[app][comp] = imp
		}
	}
	return res, nil
}

// ACRDominant reports whether the target-ratio input carries the largest
// importance for the (app, compressor) pair — it must, since the ratio is
// the quantity being inverted; features only modulate the mapping.
func (r *ImportanceResult) ACRDominant(app, comp string) bool {
	imp := r.Imp[app][comp]
	if len(imp) != len(r.Names) {
		return false
	}
	acr := imp[len(imp)-1]
	for _, v := range imp[:len(imp)-1] {
		if v > acr {
			return false
		}
	}
	return true
}

// String renders the importance table.
func (r *ImportanceResult) String() string {
	t := &Table{Title: "Model-input permutation importance (ΔMAE in model space)",
		Header: append([]string{"app", "compressor"}, r.Names...)}
	dominant, total := 0, 0
	for _, app := range Apps {
		for _, comp := range []string{"sz", "zfp"} {
			row := []string{app, comp}
			for _, v := range r.Imp[app][comp] {
				row = append(row, fmt.Sprintf("%.3f", v))
			}
			t.AddRow(row...)
			total++
			if r.ACRDominant(app, comp) {
				dominant++
			}
		}
	}
	t.AddNote("ACR (the adjusted target ratio) must dominate; features modulate the inverse mapping")
	t.AddNote("verdict: ACR is the most important input in %d/%d frameworks", dominant, total)
	return t.String()
}
