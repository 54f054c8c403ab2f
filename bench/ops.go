package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"repro/internal/datagen"
	"repro/internal/rdf"
)

// opKind is one request shape. Kinds group into the four op classes the
// metric names use (point, scan, view, write).
type opKind uint8

const (
	opPointChems    opKind = iota // /v1/query: chemical names stored at one site
	opPointByID                   // /v1/query: the site carrying one app:hasSiteId
	opPointResource               // /v1/resource: one site's filtered description
	opAgg                         // /v1/query: the Sec. 7.1 five-pattern aggregation walk
	opList                        // /v1/query: site listing
	opSpatial                     // /v1/query: sites within a mile of one stream
	opView                        // /v1/view
	opWrite                       // POST /v1/mutate
	numKinds
)

var kindNames = [numKinds]string{"point_chems", "point_by_id", "point_resource", "agg", "list", "spatial", "view", "write"}

func (k opKind) String() string { return kindNames[k] }

type opClass uint8

const (
	classPoint opClass = iota
	classScan
	classView
	classWrite
	numClasses
)

var classNames = [numClasses]string{"point", "scan", "view", "write"}

func (k opKind) class() opClass {
	switch k {
	case opPointChems, opPointByID, opPointResource:
		return classPoint
	case opAgg, opList, opSpatial:
		return classScan
	case opView:
		return classView
	}
	return classWrite
}

// Query texts. aggQuery and listQuery are the load.mixQuery/mixSiteQuery
// shapes grdf-loadgen and E17 drive, so read_small continues that series.
const (
	aggQuery = `SELECT ?site ?name ?chem WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
  ?site app:hasChemicalInfo ?info .
  ?info app:chemical ?rec .
  ?rec app:hasChemName ?chem .
}`
	listQuery = `SELECT ?site ?name WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
}`
)

func pointChemsQuery(site rdf.IRI) string {
	return fmt.Sprintf(`SELECT ?chem WHERE { %s app:hasChemicalInfo ?info . ?info app:chemical ?rec . ?rec app:hasChemName ?chem . }`, site)
}

func pointByIDQuery(siteID string) string {
	return fmt.Sprintf(`SELECT ?site ?name WHERE { ?site app:hasSiteId "%s" . ?site app:hasSiteName ?name . }`, siteID)
}

func spatialQuery(stream rdf.IRI) string {
	return fmt.Sprintf(`SELECT ?s WHERE { ?s a app:ChemSite . FILTER(grdf:distance(?s, %s) < %d) }`, stream, spatialRadiusFt)
}

// mutKind mirrors the three /v1/mutate op names.
type mutKind uint8

const (
	mutInsert mutKind = iota
	mutDelete
	mutUpdate
)

// mutation is one element of a /v1/mutate batch: one triple for insert and
// delete, [old, new] for update.
type mutation struct {
	kind    mutKind
	triples []rdf.Triple
}

// op is one request of a client's seeded sequence, in a form both the HTTP
// loop and the in-process depth replay can execute.
type op struct {
	id     int
	client int
	kind   opKind
	role   rdf.IRI
	site   int // point and write target, index into world.sites
	stream int // spatial target, index into world.streams
	query  string
	muts   []mutation
	// wire is the /v1/mutate JSON body for muts; userBytes is the N-Triples
	// payload inside it, the denominator of the bytes-per-user-byte ratios.
	wire      []byte
	userBytes int
}

func (o *op) isQuery() bool { return o.query != "" }

// path renders the request line the stable /v1 surface takes.
func (o *op) path(w *world) string {
	role := url.QueryEscape(o.role.LocalName())
	switch o.kind {
	case opView:
		return "/v1/view?role=" + role
	case opWrite:
		return "/v1/mutate?role=" + role
	case opPointResource:
		return "/v1/resource?role=" + role + "&iri=" + url.QueryEscape(string(w.sites[o.site].IRI))
	}
	return "/v1/query?role=" + role + "&q=" + url.QueryEscape(o.query)
}

// encodeMuts renders a /v1/mutate JSON array and counts the N-Triples bytes
// it carries.
func encodeMuts(muts []mutation) (wire []byte, userBytes int) {
	type wireOp struct {
		Op      string `json:"op"`
		Triples string `json:"triples,omitempty"`
		Old     string `json:"old,omitempty"`
		New     string `json:"new,omitempty"`
	}
	reqs := make([]wireOp, len(muts))
	for i, m := range muts {
		switch m.kind {
		case mutInsert:
			reqs[i] = wireOp{Op: "insert", Triples: m.triples[0].String() + "\n"}
		case mutDelete:
			reqs[i] = wireOp{Op: "delete", Triples: m.triples[0].String() + "\n"}
		case mutUpdate:
			reqs[i] = wireOp{Op: "update", Old: m.triples[0].String() + "\n", New: m.triples[1].String() + "\n"}
		}
		userBytes += len(reqs[i].Triples) + len(reqs[i].Old) + len(reqs[i].New)
	}
	wire, err := json.Marshal(reqs)
	if err != nil {
		panic(err) // strings only: cannot fail
	}
	return wire, userBytes
}

// String is the canonical one-line rendering the determinism test compares.
func (o *op) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d %s %s", o.client, o.id, o.kind, o.role.LocalName())
	switch o.kind {
	case opPointResource:
		fmt.Fprintf(&sb, " site=%d", o.site)
	case opWrite:
		sb.WriteByte(' ')
		sb.Write(o.wire)
	default:
		sb.WriteByte(' ')
		sb.WriteString(strings.Join(strings.Fields(o.query), " "))
	}
	return sb.String()
}

// mixEntry is one arm of a workload's weighted mix. With several roles the
// acting role is drawn uniformly per op.
type mixEntry struct {
	kind   opKind
	weight int
	roles  []rdf.IRI
}

type workload struct {
	name    string
	dataset string
	durable bool
	// batch is the number of ops per /v1/mutate (1 or 4).
	batch int
	mix   []mixEntry
	// replayOps is how many ops of the sequence the traced run replays at
	// each depth when -seconds is 20; it scales with -seconds.
	replayOps int
}

var (
	mainRep   = []rdf.IRI{datagen.RoleMainRepair}
	hazmat    = []rdf.IRI{datagen.RoleHazmat}
	emergency = []rdf.IRI{datagen.RoleEmergency}
	writer    = []rdf.IRI{roleWriter}
	anyReader = []rdf.IRI{datagen.RoleMainRepair, datagen.RoleHazmat, datagen.RoleEmergency}
)

// pointMix splits a point-read weight over the three point shapes.
func pointMix(weight int, roles func(opKind) []rdf.IRI) []mixEntry {
	return []mixEntry{
		{opPointChems, weight / 3, roles(opPointChems)},
		{opPointByID, weight / 3, roles(opPointByID)},
		{opPointResource, weight - 2*(weight/3), roles(opPointResource)},
	}
}

func canonicalRole(k opKind) []rdf.IRI {
	switch k {
	case opPointChems, opAgg:
		return hazmat
	case opPointResource, opView:
		return mainRep
	}
	return emergency
}

func everyRole(opKind) []rdf.IRI { return anyReader }

// workloads are the four traffic mixes; names are the contract. Weights are
// the issue's percentages reduced to the smallest deck (read_small 40/20/15/
// 15/10 of agg/list/view/point/spatial; read_large 80/8/6/4/2 of point/list/
// agg/spatial/view; read_churn 60/15/10/5/5 + 5 write; write_durable 80/20
// of write/resource). Why each exists is recorded in BENCHMARK.json and
// README.md.
var workloads = []workload{
	{
		name: "read_small", dataset: "S", replayOps: 2000,
		mix: append([]mixEntry{
			{opAgg, 8, hazmat}, {opList, 4, emergency}, {opView, 3, mainRep}, {opSpatial, 2, emergency},
		}, pointMix(3, canonicalRole)...),
	},
	{
		name: "read_large", dataset: "L", replayOps: 100,
		mix: append([]mixEntry{
			{opList, 4, emergency}, {opAgg, 3, hazmat}, {opSpatial, 2, emergency}, {opView, 1, mainRep},
		}, pointMix(40, canonicalRole)...),
	},
	{
		name: "read_churn", dataset: "M", batch: 1, replayOps: 120,
		mix: append([]mixEntry{
			{opList, 3, anyReader}, {opAgg, 2, anyReader}, {opSpatial, 1, anyReader}, {opView, 1, mainRep}, {opWrite, 1, writer},
		}, pointMix(12, everyRole)...),
	},
	{
		name: "write_durable", dataset: "M", durable: true, batch: 4, replayOps: 1000,
		mix: []mixEntry{
			{opWrite, 4, writer}, {opPointResource, 1, mainRep},
		},
	},
}

// writes reports whether the mix mutates the dataset.
func (wl *workload) writes() bool {
	for _, m := range wl.mix {
		if m.kind == opWrite {
			return true
		}
	}
	return false
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Vocabulary the write ops add to a site.
const hasNote rdf.IRI = rdf.AppNS + "hasNote"

// noteLag is how many batches a note lives before its client deletes it.
const noteLag = 8

type note struct {
	site int
	text string
}

// opGen produces one client's op sequence. Everything is a function of
// (seed, workload, client): the same arguments give the same sequence, as
// long as every write is acknowledged in order (ack advances the versions
// the next update's "old" triple must name).
type opGen struct {
	w       *world
	wl      *workload
	client  int
	clients int
	rng     *rand.Rand
	zipf    *rand.Zipf
	seq     int
	// deck holds one card per unit of mix weight. It is reshuffled each
	// time it runs out, so every len(deck) consecutive ops hold the mix in
	// exact proportion: with independent draws the number of 2%-weight ops
	// in a short run would itself be noise (13 ± 4 views in 640 ops).
	deck []int
	left int

	// Write state. Clients write disjoint sites (index ≡ client mod
	// clients), so each owns the versions of the sites it touches.
	nameVer  map[int]int
	phoneVer map[int]int
	notes    []note
	batches  int
}

func newOpGen(w *world, wl *workload, seed int64, client, clients int) *opGen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	g := &opGen{
		w: w, wl: wl, client: client, clients: clients, rng: rng,
		// Zipf(1.1) over site rank: a few hot sites, a long tail.
		zipf:     rand.NewZipf(rng, 1.1, 1, uint64(len(w.sites)-1)),
		nameVer:  map[int]int{},
		phoneVer: map[int]int{},
	}
	for arm, m := range wl.mix {
		for i := 0; i < m.weight; i++ {
			g.deck = append(g.deck, arm)
		}
	}
	return g
}

func (w *world) siteName(i, ver int) string {
	if ver == 0 {
		return w.sites[i].Name
	}
	return fmt.Sprintf("%s rev %d", w.sites[i].Name, ver)
}

func (w *world) sitePhone(i, ver int) string {
	if ver == 0 {
		return w.phones[i]
	}
	return fmt.Sprintf("%s x%d", w.phones[i], ver)
}

func (g *opGen) ownSite() int {
	owned := (len(g.w.sites) - g.client + g.clients - 1) / g.clients
	return g.client + g.clients*g.rng.Intn(owned)
}

func (g *opGen) next() *op {
	if g.left == 0 {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.left = len(g.deck)
	}
	g.left--
	arm := g.wl.mix[g.deck[g.left]]
	o := &op{id: g.seq, client: g.client, kind: arm.kind, role: arm.roles[g.rng.Intn(len(arm.roles))], site: -1, stream: -1}
	g.seq++
	switch o.kind {
	case opPointChems:
		o.site = int(g.zipf.Uint64())
		o.query = pointChemsQuery(g.w.sites[o.site].IRI)
	case opPointByID:
		o.site = int(g.zipf.Uint64())
		o.query = pointByIDQuery(g.w.sites[o.site].SiteID)
	case opPointResource:
		o.site = int(g.zipf.Uint64())
	case opAgg:
		o.query = aggQuery
	case opList:
		o.query = listQuery
	case opSpatial:
		o.stream = g.rng.Intn(len(g.w.streams))
		o.query = spatialQuery(g.w.streams[o.stream].IRI)
	case opWrite:
		o.site = g.ownSite()
		o.muts = g.writeBatch(o.site)
		o.wire, o.userBytes = encodeMuts(o.muts)
	}
	return o
}

// writeBatch builds the mutate payload. A batch of one renames the site. A
// batch of four inserts a note, renames the site, deletes the note this
// client inserted noteLag batches ago and updates the contact phone, so the
// triple count is stationary once the first noteLag batches have run.
func (g *opGen) writeBatch(site int) []mutation {
	iri := g.w.sites[site].IRI
	rename := mutation{mutUpdate, []rdf.Triple{
		rdf.T(iri, datagen.HasSiteName, rdf.NewString(g.w.siteName(site, g.nameVer[site]))),
		rdf.T(iri, datagen.HasSiteName, rdf.NewString(g.w.siteName(site, g.nameVer[site]+1))),
	}}
	if g.wl.batch == 1 {
		return []mutation{rename}
	}
	text := fmt.Sprintf("c%d-b%d", g.client, g.batches)
	muts := []mutation{
		{mutInsert, []rdf.Triple{rdf.T(iri, hasNote, rdf.NewString(text))}},
		rename,
	}
	if len(g.notes) >= noteLag {
		old := g.notes[0]
		muts = append(muts, mutation{mutDelete, []rdf.Triple{
			rdf.T(g.w.sites[old.site].IRI, hasNote, rdf.NewString(old.text)),
		}})
	}
	return append(muts, mutation{mutUpdate, []rdf.Triple{
		rdf.T(iri, datagen.HasContactPhone, rdf.NewString(g.w.sitePhone(site, g.phoneVer[site]))),
		rdf.T(iri, datagen.HasContactPhone, rdf.NewString(g.w.sitePhone(site, g.phoneVer[site]+1))),
	}})
}

// ack records that the server acknowledged o, advancing the state later
// writes build on. A write that was not acknowledged leaves it untouched:
// /v1/mutate is all-or-nothing.
func (g *opGen) ack(o *op) {
	if o.kind != opWrite {
		return
	}
	g.batches++
	for _, m := range o.muts {
		switch {
		case m.kind == mutInsert:
			g.notes = append(g.notes, note{o.site, m.triples[0].Object.(rdf.Literal).Value})
		case m.kind == mutDelete:
			g.notes = g.notes[1:]
		case m.triples[0].Predicate.Equal(datagen.HasSiteName):
			g.nameVer[o.site]++
		default:
			g.phoneVer[o.site]++
		}
	}
}
