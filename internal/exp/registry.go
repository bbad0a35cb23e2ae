package exp

import (
	"soma/internal/engine"
	"soma/internal/hw"
	"soma/internal/models"
	"soma/internal/workload"
)

// Catalog is the shared registry listing behind `soma -list` and the somad
// /v1/models, /v1/hw, /v1/scenarios and /v1/backends endpoints: every name
// list is deterministically sorted, so scenario specs and scripts
// referencing them are stable across runs and releases.
type Catalog struct {
	Models    []string `json:"models"`
	Platforms []string `json:"platforms"`
	Scenarios []string `json:"scenarios"`
	Backends  []string `json:"backends"`
}

// Registry returns the catalog of every registered model, hardware platform,
// built-in scenario and solver backend, each list in sorted order.
func Registry() Catalog {
	return Catalog{
		Models:    models.Names(),
		Platforms: hw.Platforms(),
		Scenarios: workload.BuiltinNames(),
		Backends:  engine.Backends(),
	}
}
