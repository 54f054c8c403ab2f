// Package datagen produces the deterministic synthetic datasets the
// reproduction uses in place of the paper's proprietary sources: the North
// Central Texas Council of Governments hydrology clearinghouse (streams,
// creeks, rivers with TX83-NCF coordinates) and the multi-state E-Plan
// chemical-facility database (site names/ids, bounding boxes, chemical
// inventories, contacts). Generators are seeded so every experiment is
// reproducible bit-for-bit.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Application vocabulary used by the generated data (mirrors Lists 6–7).
const (
	HydroStream    rdf.IRI = rdf.AppNS + "HydroStream"
	ChemSite       rdf.IRI = rdf.AppNS + "ChemSite"
	ChemInfo       rdf.IRI = rdf.AppNS + "ChemInfo"
	ChemRecord     rdf.IRI = rdf.AppNS + "ChemicalRecord"
	WeatherStation rdf.IRI = rdf.AppNS + "WeatherStation"

	HasObjectID     rdf.IRI = rdf.AppNS + "hasObjectID"
	HasStreamName   rdf.IRI = rdf.AppNS + "hasStreamName"
	HasStreamType   rdf.IRI = rdf.AppNS + "hasStreamType"
	FlowsInto       rdf.IRI = rdf.AppNS + "flowsInto"
	HasSiteName     rdf.IRI = rdf.AppNS + "hasSiteName"
	HasSiteID       rdf.IRI = rdf.AppNS + "hasSiteId"
	HasContactName  rdf.IRI = rdf.AppNS + "hasContactName"
	HasContactPhone rdf.IRI = rdf.AppNS + "hasContactPhone"
	HasChemicalInfo rdf.IRI = rdf.AppNS + "hasChemicalInfo"
	HasChemName     rdf.IRI = rdf.AppNS + "hasChemName"
	HasChemCode     rdf.IRI = rdf.AppNS + "hasChemCode"
	HasQuantityKg   rdf.IRI = rdf.AppNS + "hasQuantityKg"
	HasTemperature  rdf.IRI = rdf.AppNS + "hasTemperature"
	HasHumidity     rdf.IRI = rdf.AppNS + "hasHumidity"
	NearStation     rdf.IRI = rdf.AppNS + "nearWeatherStation"
)

// Region is the synthetic study area in TX83-NCF-like feet, matching the
// coordinate magnitudes of List 6. Every generator places its features in it
// and names TX83NCF via hasSRSName.
var Region = geom.EnvelopeOf(
	geom.Coord{X: 2500000, Y: 7080000},
	geom.Coord{X: 2560000, Y: 7140000},
)

const (
	// pointsPerCurve is a trunk's polyline resolution; a tributary has half
	// as many points plus two.
	pointsPerCurve = 8
	// chemicalsPerSite bounds a site's inventory (1..chemicalsPerSite).
	chemicalsPerSite = 3
)

// HydrologyConfig tunes the stream-network generator.
type HydrologyConfig struct {
	Seed int64
	// Trunks is the number of main rivers.
	Trunks int
	// TributariesPerTrunk is the number of tributaries feeding each trunk.
	TributariesPerTrunk int
}

func (c *HydrologyConfig) defaults() {
	if c.Trunks == 0 {
		c.Trunks = 2
	}
	if c.TributariesPerTrunk == 0 {
		c.TributariesPerTrunk = 6
	}
}

// encode appends geo's GRDF encoding rooted at node to ts. The generators
// only build geometries the encoder knows, so a failure is a bug.
func encode(ts []rdf.Triple, node rdf.Term, geo geom.Geometry) []rdf.Triple {
	ts, err := grdf.EncodeGeometry(ts, node, geo, geom.TX83NCF)
	if err != nil {
		panic(fmt.Sprintf("datagen: %v", err))
	}
	return ts
}

// commit returns a new store holding ts, added with one AddAll.
func commit(ts []rdf.Triple) *store.Store {
	st := store.New()
	st.AddAll(ts)
	return st
}

// Stream describes one generated watercourse.
type Stream struct {
	IRI      rdf.IRI
	Name     string
	Type     string // "river", "creek"
	Geometry geom.LineString
	// FlowsInto is the downstream stream IRI (empty for trunks).
	FlowsInto rdf.IRI
}

// HydrologyDataset is the generated network plus its triple encoding.
type HydrologyDataset struct {
	Store   *store.Store
	Streams []Stream
}

var streamNames = []string{
	"Trinity", "Rowlett", "Duck", "Spring", "White Rock", "Cottonwood",
	"Prairie", "Bear", "Sycamore", "Mustang", "Turtle", "Honey", "Ash",
	"Cedar", "Elm Fork", "Mountain", "Walnut", "Willow", "Panther",
	"Clear Fork", "Johnson", "Marine", "Rush", "Ten Mile", "Farmers",
}

// Hydrology generates a dendritic stream network: meandering trunk rivers
// west→east across the region, with tributaries joining them at interior
// points.
func Hydrology(cfg HydrologyConfig) *HydrologyDataset {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := &HydrologyDataset{}
	var ts []rdf.Triple
	objectID := 11000

	addStream := func(s Stream) {
		objectID++
		ts = append(grdf.NewFeature(ts, s.IRI, HydroStream),
			rdf.T(s.IRI, HasObjectID, rdf.NewInteger(int64(objectID))),
			rdf.T(s.IRI, HasStreamName, rdf.NewString(s.Name)),
			rdf.T(s.IRI, HasStreamType, rdf.NewString(s.Type)))
		if s.FlowsInto != "" {
			ts = append(ts, rdf.T(s.IRI, FlowsInto, s.FlowsInto))
		}
		geomNode := rdf.IRI(string(s.IRI) + "_geom")
		ts = append(encode(ts, geomNode, s.Geometry), rdf.T(s.IRI, grdf.HasGeometry, geomNode))
		ds.Streams = append(ds.Streams, s)
	}

	r := Region
	for t := 0; t < cfg.Trunks; t++ {
		// Trunk crosses the region west to east at a random latitude band.
		y0 := r.MinY + (float64(t)+0.5)*(r.Height()/float64(cfg.Trunks))
		coords := make([]geom.Coord, pointsPerCurve)
		for i := range coords {
			frac := float64(i) / float64(pointsPerCurve-1)
			coords[i] = geom.Coord{
				X: r.MinX + frac*r.Width(),
				Y: y0 + (rng.Float64()-0.5)*r.Height()*0.08,
			}
		}
		trunkLine, _ := geom.NewLineString(coords)
		trunkIRI := rdf.IRI(fmt.Sprintf("%shydro_river%d", rdf.AppNS, t+1))
		trunkName := streamNames[t%len(streamNames)] + " River"
		addStream(Stream{IRI: trunkIRI, Name: trunkName, Type: "river", Geometry: trunkLine})

		for k := 0; k < cfg.TributariesPerTrunk; k++ {
			// Join point: an interior vertex of the trunk.
			join := coords[1+rng.Intn(len(coords)-2)]
			// Source point: offset north or south of the trunk.
			dir := 1.0
			if rng.Intn(2) == 0 {
				dir = -1.0
			}
			src := geom.Coord{
				X: join.X + (rng.Float64()-0.5)*r.Width()*0.2,
				Y: join.Y + dir*(0.1+rng.Float64()*0.25)*r.Height(),
			}
			tribCoords := make([]geom.Coord, pointsPerCurve/2+2)
			for i := range tribCoords {
				frac := float64(i) / float64(len(tribCoords)-1)
				tribCoords[i] = geom.Coord{
					X: src.X + frac*(join.X-src.X) + (rng.Float64()-0.5)*r.Width()*0.01,
					Y: src.Y + frac*(join.Y-src.Y) + (rng.Float64()-0.5)*r.Height()*0.01,
				}
			}
			tribCoords[len(tribCoords)-1] = join // exact confluence
			tribLine, _ := geom.NewLineString(tribCoords)
			tribIRI := rdf.IRI(fmt.Sprintf("%shydro_creek%d_%d", rdf.AppNS, t+1, k+1))
			name := streamNames[(t*cfg.TributariesPerTrunk+k+cfg.Trunks)%len(streamNames)] + " Creek"
			addStream(Stream{
				IRI: tribIRI, Name: name, Type: "creek",
				Geometry: tribLine, FlowsInto: trunkIRI,
			})
		}
	}
	ds.Store = commit(ts)
	return ds
}

// ChemicalConfig tunes the chemical-site generator.
type ChemicalConfig struct {
	Seed int64
	// Sites is the number of facilities.
	Sites int
	// NearStreams, when non-nil, biases placement toward stream vertices so
	// the contamination scenario has sites in blast radius.
	NearStreams *HydrologyDataset
	// NearFraction is the fraction of sites placed near streams (default 0.5
	// when NearStreams is set).
	NearFraction float64
}

func (c *ChemicalConfig) defaults() {
	if c.Sites == 0 {
		c.Sites = 12
	}
	if c.NearStreams != nil && c.NearFraction == 0 {
		c.NearFraction = 0.5
	}
}

// Site describes one generated facility.
type Site struct {
	IRI      rdf.IRI
	Name     string
	SiteID   string
	Bounds   geom.Envelope
	Chemical []string
}

// ChemicalDataset is the generated facility data plus its triple encoding.
type ChemicalDataset struct {
	Store *store.Store
	Sites []Site
}

var companyWords = [][2]string{
	{"North Texas", "Energy"}, {"Collin", "Chemicals"}, {"Lone Star", "Refining"},
	{"Blackland", "Agro"}, {"Red River", "Solvents"}, {"Prairie", "Petrochem"},
	{"Trinity", "Coatings"}, {"Caddo", "Industrial"}, {"Brazos", "Polymers"},
	{"Palo Duro", "Processing"}, {"Gulf Plains", "Fertilizer"}, {"Comanche", "Materials"},
}

var chemicals = []struct{ name, code string }{
	{"Sulfuric Acid", "121NR"}, {"Anhydrous Ammonia", "208AA"},
	{"Chlorine", "017CL"}, {"Hydrochloric Acid", "332HC"},
	{"Sodium Hydroxide", "415SH"}, {"Benzene", "071BZ"},
	{"Toluene", "098TL"}, {"Methanol", "190ME"},
	{"Nitric Acid", "243NA"}, {"Hydrogen Peroxide", "377HP"},
}

// Chemicals generates the facility dataset.
func Chemicals(cfg ChemicalConfig) *ChemicalDataset {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	ds := &ChemicalDataset{}
	// A site states at most 13 triples of its own and 5 per chemical.
	ts := make([]rdf.Triple, 0, cfg.Sites*(13+5*chemicalsPerSite))
	r := Region

	var streamVertices []geom.Coord
	if cfg.NearStreams != nil {
		for _, s := range cfg.NearStreams.Streams {
			streamVertices = append(streamVertices, s.Geometry.Coords...)
		}
	}

	for i := 0; i < cfg.Sites; i++ {
		var center geom.Coord
		if len(streamVertices) > 0 && rng.Float64() < cfg.NearFraction {
			v := streamVertices[rng.Intn(len(streamVertices))]
			center = geom.Coord{
				X: v.X + (rng.Float64()-0.5)*2000,
				Y: v.Y + (rng.Float64()-0.5)*2000,
			}
		} else {
			center = geom.Coord{
				X: r.MinX + rng.Float64()*r.Width(),
				Y: r.MinY + rng.Float64()*r.Height(),
			}
		}
		half := 200 + rng.Float64()*600 // site footprint 400–1600 ft across
		bounds := geom.EnvelopeOf(
			geom.Coord{X: center.X - half, Y: center.Y - half},
			geom.Coord{X: center.X + half, Y: center.Y + half},
		)
		words := companyWords[i%len(companyWords)]
		name := fmt.Sprintf("%s %s", words[0], words[1])
		if i >= len(companyWords) {
			name = fmt.Sprintf("%s %s %d", words[0], words[1], i/len(companyWords)+1)
		}
		siteID := fmt.Sprintf("%06d", 4000+i*17)
		iri := rdf.IRI(fmt.Sprintf("%schem_site%03d", rdf.AppNS, i+1))

		contact := contactName(rng)
		phone := fmt.Sprintf("972-555-%04d", rng.Intn(10000))
		ts = append(grdf.NewFeature(ts, iri, ChemSite),
			rdf.T(iri, HasSiteName, rdf.NewString(name)),
			rdf.T(iri, HasSiteID, rdf.NewString(siteID)),
			rdf.T(iri, HasContactName, rdf.NewString(contact)),
			rdf.T(iri, HasContactPhone, rdf.NewString(phone)))
		envNode := rdf.IRI(string(iri) + "_extent")
		ts = append(encode(ts, envNode, bounds), rdf.T(iri, grdf.BoundedBy, envNode))

		nChem := 1 + rng.Intn(chemicalsPerSite)
		var names []string
		info := rdf.IRI(string(iri) + "_cheminfo")
		ts = append(ts, rdf.T(iri, HasChemicalInfo, info), rdf.T(info, rdf.RDFType, ChemInfo))
		picked := rng.Perm(len(chemicals))[:nChem]
		for _, ci := range picked {
			c := chemicals[ci]
			entry := rdf.IRI(fmt.Sprintf("%s_chem%s", string(info), c.code))
			ts = append(ts,
				rdf.T(info, rdf.IRI(rdf.AppNS+"chemical"), entry),
				rdf.T(entry, rdf.RDFType, ChemRecord),
				rdf.T(entry, HasChemName, rdf.NewString(c.name)),
				rdf.T(entry, HasChemCode, rdf.NewString(c.code)),
				rdf.T(entry, HasQuantityKg, rdf.NewInteger(int64(100+rng.Intn(9900)))))
			names = append(names, c.name)
		}
		ds.Sites = append(ds.Sites, Site{
			IRI: iri, Name: name, SiteID: siteID, Bounds: bounds, Chemical: names,
		})
	}
	ds.Store = commit(ts)
	return ds
}

var firstNames = []string{"Avery", "Jordan", "Riley", "Casey", "Morgan", "Quinn", "Harper", "Reese"}
var lastNames = []string{"Nguyen", "Garcia", "Smith", "Johnson", "Patel", "Brown", "Davis", "Walker"}

func contactName(rng *rand.Rand) string {
	return firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
}

// WeatherConfig tunes the weather overlay generator used by the data-merge
// experiment (E7).
type WeatherConfig struct {
	Seed     int64
	Stations int
}

// Weather generates weather stations with temperature/humidity readings.
func Weather(cfg WeatherConfig) *store.Store {
	if cfg.Stations == 0 {
		cfg.Stations = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	var ts []rdf.Triple
	for i := 0; i < cfg.Stations; i++ {
		iri := rdf.IRI(fmt.Sprintf("%sweather_station%02d", rdf.AppNS, i+1))
		pos := geom.NewPoint(
			Region.MinX+rng.Float64()*Region.Width(),
			Region.MinY+rng.Float64()*Region.Height(),
		)
		posNode := rdf.IRI(string(iri) + "_geom")
		ts = encode(grdf.NewFeature(ts, iri, WeatherStation), posNode, pos)
		temperature := math.Round((60+rng.Float64()*40)*10) / 10
		humidity := 20 + rng.Intn(70)
		ts = append(ts,
			rdf.T(iri, grdf.HasGeometry, posNode),
			rdf.T(iri, HasTemperature, rdf.NewDouble(temperature)),
			rdf.T(iri, HasHumidity, rdf.NewInteger(int64(humidity))))
	}
	return commit(ts)
}

// LinkSitesToStations aggregates weather data with the chemical sites: each
// site gets a nearWeatherStation link to its closest station. This is the
// "chemical site data aggregated with weather data" merge of Section 7.1.
func LinkSitesToStations(merged *store.Store) int {
	stations := merged.SubjectsOfType(WeatherStation)
	sites := merged.SubjectsOfType(ChemSite)
	var links []rdf.Triple
	for _, site := range sites {
		siteGeo, _, err := grdf.GeometryOf(merged, site)
		if err != nil {
			continue
		}
		var best rdf.Term
		bestDist := math.Inf(1)
		for _, stn := range stations {
			stnGeo, _, err := grdf.GeometryOf(merged, stn)
			if err != nil {
				continue
			}
			if d := geom.Distance(siteGeo, stnGeo); d < bestDist {
				bestDist, best = d, stn
			}
		}
		if best != nil {
			links = append(links, rdf.T(site, NearStation, best))
		}
	}
	merged.AddAll(links)
	return len(links)
}
