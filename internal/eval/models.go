package eval

import (
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stream"

	// The learner packages self-register their factories; the blank
	// imports pull the init-time registrations in so any evaluation entry
	// point can build every paper model by name.
	_ "repro/internal/core"
	_ "repro/internal/efdt"
	_ "repro/internal/ensemble"
	_ "repro/internal/fimtdd"
	_ "repro/internal/glm"
	_ "repro/internal/hatada"
	_ "repro/internal/hoeffding"
	_ "repro/internal/nbayes"
)

// Model names as used in the paper's tables.
const (
	NameDMT     = "DMT"
	NameFIMTDD  = "FIMT-DD"
	NameVFDTMC  = "VFDT (MC)"
	NameVFDTNBA = "VFDT (NBA)"
	NameHTAda   = "HT-Ada"
	NameEFDT    = "EFDT"
	NameForest  = "Forest Ens."
	NameBagging = "Bagging Ens."
)

// StandaloneModels are the six stand-alone classifiers of Tables II-V in
// the paper's row order.
func StandaloneModels() []string {
	return []string{NameDMT, NameFIMTDD, NameVFDTMC, NameVFDTNBA, NameHTAda, NameEFDT}
}

// EnsembleModels are the two reference ensembles of Table II.
func EnsembleModels() []string {
	return []string{NameForest, NameBagging}
}

// AllModels returns stand-alone models followed by the ensembles.
func AllModels() []string {
	return append(StandaloneModels(), EnsembleModels()...)
}

// NewClassifier builds a fresh classifier by its paper name via the model
// registry; the zero parameter bag plus the seed reproduces the paper's
// Section VI-C configuration exactly.
func NewClassifier(name string, schema stream.Schema, seed int64) (model.Classifier, error) {
	return registry.New(name, schema, registry.WithSeed(seed))
}
