// Observations exercises the paper's Section 3.3 types end to end: a water
// quality sensor on a stream produces Observations (themselves Features), a
// Coverage captures its temperature series, and the monitoring program's
// validity is described with an EnvelopeWithTimePeriod — the List 3
// construct whose two time positions the reasoner's cardinality check
// enforces.
//
//	go run ./examples/observations
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/store"
)

func main() {
	st := store.New()

	// The monitored stream.
	stream := rdf.IRI(rdf.AppNS + "rowlettCreek")
	st.AddAll(grdf.NewFeature(nil, stream, rdf.IRI(rdf.AppNS+"HydroStream")))
	line, _ := geom.NewLineString([]geom.Coord{{X: 0, Y: 0}, {X: 900, Y: 350}, {X: 2100, Y: 800}})
	if _, err := grdf.SetGeometry(st, stream, line, geom.TX83NCF); err != nil {
		log.Fatal(err)
	}

	// pH observations over one morning.
	base := time.Date(2008, 4, 7, 6, 0, 0, 0, time.UTC)
	for i, ph := range []float64{7.1, 7.0, 6.4, 5.9} {
		obs := grdf.NewObservation(st,
			rdf.IRI(fmt.Sprintf("%sobs%d", rdf.AppNS, i+1)),
			stream, base.Add(time.Duration(i)*time.Hour))
		grdf.SetObservationValue(st, obs, ph, "http://grdf.org/uom/ph")
	}

	recs, err := grdf.ObservationsOf(st, stream)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pH observations (sorted by time):")
	for _, r := range recs {
		marker := ""
		if r.Value < 6.5 {
			marker = "  <- acidification event"
		}
		fmt.Printf("  %s  pH %.1f%s\n", r.At.Format("15:04"), r.Value, marker)
	}

	// A temperature coverage for the same sensor.
	cov := grdf.NewCoverage(st, rdf.IRI(rdf.AppNS+"tempSeries"), stream)
	for i, c := range []float64{18.2, 19.0, 20.4, 22.1} {
		grdf.AddCoverageSample(st, cov, base.Add(time.Duration(i)*time.Hour), c, "http://grdf.org/uom/celsius")
	}
	samples, err := grdf.CoverageSamples(st, cov)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntemperature coverage: %d samples, %.1f°C → %.1f°C\n",
		len(samples), samples[0].Value, samples[len(samples)-1].Value)

	// Monitoring-program extent: where and when the program applies.
	env := geom.EnvelopeOf(geom.Coord{X: -100, Y: -100}, geom.Coord{X: 2200, Y: 900})
	program := rdf.IRI(rdf.AppNS + "monitoringProgram")
	st.AddAll(grdf.NewFeature(nil, program, grdf.Feature))
	node, err := grdf.SetEnvelopeWithTimePeriod(st, program, env, geom.TX83NCF,
		time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2008, 12, 31, 0, 0, 0, 0, time.UTC))
	if err != nil {
		log.Fatal(err)
	}
	from, to, err := grdf.TimePeriodOf(st, node)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmonitoring program valid %s .. %s over %.0f x %.0f ft\n",
		from.Format("2006-01-02"), to.Format("2006-01-02"), env.Width(), env.Height())

	// The ontology's List 3 restriction holds on this data.
	data := st.Snapshot()
	data.AddGraph(grdf.Ontology())
	m, stats := owl.Materialize(data)
	fmt.Printf("\nreasoning: %d inferred triples, %d consistency violations\n",
		stats.Inferred, len(owl.Check(m)))

	// Observations are features (inferred), so feature-level queries see them.
	eng := grdf.NewEngine(m)
	res, err := eng.Query(`SELECT (COUNT(?f) AS ?n) WHERE { ?f a grdf:Feature }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grdf:Feature instances (incl. observations): %s\n",
		res.Bindings()[0]["n"].(rdf.Literal).Value)

	// Validation gives the dataset a clean bill.
	rep := grdf.Validate(st)
	fmt.Printf("validation: %d geometries checked, %d errors\n", rep.Checked, len(rep.Errors()))
}
