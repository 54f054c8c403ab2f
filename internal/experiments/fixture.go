package experiments

import (
	"context"
	"net/http"
	"net/http/httptest"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/seconto"
)

// scenarioEngine builds the Sec 7.1 scenario engine with OWL reasoning.
func scenarioEngine(seed int64, sites int) (*gsacs.Engine, *datagen.Scenario) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: seed, Sites: sites})
	reasoner := gsacs.NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	e := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{Reasoner: reasoner})
	return e, sc
}

// scenarioServer starts the in-process server the load experiments (E17,
// E21) drive: the 12-site scenario, every request tracked by slo, plus the
// options specific to the experiment. Arms start a fresh one each so neither
// the SLO windows nor the cache leak between them.
func scenarioServer(slo *obs.SLOEngine, extra ...gsacs.ServerOption) *httptest.Server {
	engine, _ := scenarioEngine(61, 12)
	opts := append([]gsacs.ServerOption{gsacs.WithSLO(slo)}, extra...)
	return httptest.NewServer(gsacs.NewServer(engine, nil, opts...))
}

// coldScenarioServer is scenarioServer keeping nothing from one request to
// the next: each is answered by an engine built for it and so pays the full
// decision-engine walk — a couple of milliseconds of CPU over a few hundred
// triples, with a response of a few hundred bytes. E20 needs that shape: a
// knee low enough for a generator in the same process to over-drive, without
// the heap and the response sizes a large dataset would bring into the
// process the generator shares.
func coldScenarioServer(slo *obs.SLOEngine, extra ...gsacs.ServerOption) *httptest.Server {
	engine, sc := scenarioEngine(61, 12)
	opts := append([]gsacs.ServerOption{gsacs.WithSLO(slo)}, extra...)
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		perRequest := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{Reasoner: engine.Reasoner()})
		gsacs.NewServer(perRequest, nil, opts...).ServeHTTP(w, r)
	}))
}

// driveMix fires the open-loop Sec 7.1 role mix at srv — rate, duration, SLO
// and any in-flight cap as cfg gives them — and returns the client's report.
func driveMix(srv *httptest.Server, cfg load.Config) (load.Report, error) {
	arms, err := load.ScenarioArms(load.MixConfig{BaseURL: srv.URL, Client: srv.Client()})
	if err != nil {
		return load.Report{}, err
	}
	cfg.Arms = arms
	res, err := load.Run(context.Background(), cfg)
	if err != nil {
		return load.Report{}, err
	}
	return res.Report(), nil
}
