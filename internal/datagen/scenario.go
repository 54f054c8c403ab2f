package datagen

import (
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// The canonical Section 7.1 water-contamination scenario: two data stores
// (hydrology topology, chemical sites), three roles with graduated access.
// Used by the contamination example, the G-SACS tests and experiments E5–E7.

// Role IRIs for the scenario.
const (
	RoleMainRepair rdf.IRI = seconto.NS + "MainRep"
	RoleHazmat     rdf.IRI = seconto.NS + "Hazmat"
	RoleEmergency  rdf.IRI = seconto.NS + "EmergencyResponse"
)

// Scenario bundles everything the contamination scenario needs.
type Scenario struct {
	Hydrology *HydrologyDataset
	Chemical  *ChemicalDataset
	// Merged is the middleware's layered view (union of both stores).
	Merged   *store.Store
	Policies *seconto.Set
}

// ScenarioConfig scales the scenario.
type ScenarioConfig struct {
	Seed   int64
	Sites  int
	Trunks int
}

// NewScenario builds the scenario datasets and the role policies (see
// ScenarioPolicies).
func NewScenario(cfg ScenarioConfig) *Scenario {
	hydro := Hydrology(HydrologyConfig{Seed: cfg.Seed, Trunks: cfg.Trunks})
	chem := Chemicals(ChemicalConfig{Seed: cfg.Seed, Sites: cfg.Sites, NearStreams: hydro})

	// Merged states the hydrology layer's triples, then the chemical layer's,
	// each in its store's order: that order fixes Merged's dictionary IDs.
	return &Scenario{
		Hydrology: hydro,
		Chemical:  chem,
		Merged:    commit(append(hydro.Store.Triples(), chem.Store.Triples()...)),
		Policies:  ScenarioPolicies(),
	}
}

// ScenarioPolicies returns the scenario's role policies (List 8). They do not
// depend on the generated data, so a process that holds no dataset of its own
// (a read replica, a query router) can load them alone:
//
//   - 'main repair' — full view of the hydrology layer, but of chemical
//     sites only the geographic extent (List 8: hasPropertyAccess
//     grdf:boundedBy).
//   - 'hazmat personnel' — stream data plus site locations and an aggregate
//     list of chemical *names* (codes, quantities and contacts suppressed).
//   - 'emergency response' — "an administrative role and requires full
//     access to the data": one full Permit over grdf:Feature (covering every
//     domain feature class through subclass reasoning) plus the inventory
//     records.
func ScenarioPolicies() *seconto.Set {
	boundedBy := rdf.IRI(grdf.NS + "boundedBy")
	return &seconto.Set{Rules: []seconto.Rule{
		// main repair
		{
			ID: seconto.NS + "MainRepHydro", Subject: RoleMainRepair,
			Action: seconto.ActionView, Resource: HydroStream, Permit: true,
		},
		{
			ID: seconto.NS + "MainRepPolicy1", Subject: RoleMainRepair,
			Action: seconto.ActionView, Resource: ChemSite, Permit: true,
			Properties: []rdf.IRI{boundedBy},
		},
		// hazmat personnel
		{
			ID: seconto.NS + "HazmatHydro", Subject: RoleHazmat,
			Action: seconto.ActionView, Resource: HydroStream, Permit: true,
		},
		{
			ID: seconto.NS + "HazmatSites", Subject: RoleHazmat,
			Action: seconto.ActionView, Resource: ChemSite, Permit: true,
			Properties: []rdf.IRI{boundedBy, HasSiteName, HasChemicalInfo},
		},
		{
			ID: seconto.NS + "HazmatChemInfo", Subject: RoleHazmat,
			Action: seconto.ActionView, Resource: ChemInfo, Permit: true,
			Properties: []rdf.IRI{rdf.IRI(rdf.AppNS + "chemical")},
		},
		{
			ID: seconto.NS + "HazmatChemRecord", Subject: RoleHazmat,
			Action: seconto.ActionView, Resource: ChemRecord, Permit: true,
			Properties: []rdf.IRI{HasChemName},
		},
		// emergency response: administrative, full access
		{
			ID: seconto.NS + "EmergencyAll", Subject: RoleEmergency,
			Action: seconto.ActionView, Resource: grdf.Feature, Permit: true,
		},
		{
			ID: seconto.NS + "EmergencyChemInfo", Subject: RoleEmergency,
			Action: seconto.ActionView, Resource: ChemInfo, Permit: true,
		},
		{
			ID: seconto.NS + "EmergencyChemRecord", Subject: RoleEmergency,
			Action: seconto.ActionView, Resource: ChemRecord, Permit: true,
		},
	}}
}
