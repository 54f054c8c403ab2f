package owl

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

func iri(s string) rdf.IRI { return rdf.IRI("http://e/" + s) }

func loadTurtle(t *testing.T, doc string) *store.Store {
	t.Helper()
	g, err := turtle.ParseString(doc)
	if err != nil {
		t.Fatalf("turtle: %v", err)
	}
	return store.FromGraph(g)
}

func TestSubClassTransitivityAndTyping(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:Creek rdfs:subClassOf ex:Stream .
ex:Stream rdfs:subClassOf grdf:Feature .
ex:rowlett a ex:Creek .
`)
	m, stats := Materialize(st)
	if !m.Has(rdf.T(iri("Creek"), rdf.RDFSSubClassOf, rdf.IRI(rdf.GRDFNS+"Feature"))) {
		t.Error("rdfs11 failed")
	}
	for _, class := range []rdf.Term{iri("Stream"), rdf.IRI(rdf.GRDFNS + "Feature")} {
		if !m.Has(rdf.T(iri("rowlett"), rdf.RDFType, class)) {
			t.Errorf("rdfs9 failed for %s", class)
		}
	}
	if stats.Inferred < 3 {
		t.Errorf("Inferred = %d", stats.Inferred)
	}
}

func TestSubPropertyAndDomainRange(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:flowsDirectlyInto rdfs:subPropertyOf ex:flowsInto .
ex:flowsInto rdfs:domain ex:Watercourse ;
             rdfs:range ex:Watercourse .
ex:a ex:flowsDirectlyInto ex:b .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("a"), iri("flowsInto"), iri("b"))) {
		t.Error("rdfs7 failed")
	}
	if !m.Has(rdf.T(iri("a"), rdf.RDFType, iri("Watercourse"))) {
		t.Error("rdfs2 (domain) failed")
	}
	if !m.Has(rdf.T(iri("b"), rdf.RDFType, iri("Watercourse"))) {
		t.Error("rdfs3 (range) failed")
	}
}

func TestDomainRangeDeclaredAfterData(t *testing.T) {
	r := NewReasonerOver(store.New())
	r.Add(rdf.T(iri("a"), iri("p"), iri("b")))
	r.Add(rdf.T(iri("p"), rdf.RDFSDomain, iri("C")))
	r.Add(rdf.T(iri("p"), rdf.RDFSRange, iri("D")))
	if !r.Store().Has(rdf.T(iri("a"), rdf.RDFType, iri("C"))) {
		t.Error("late domain failed")
	}
	if !r.Store().Has(rdf.T(iri("b"), rdf.RDFType, iri("D"))) {
		t.Error("late range failed")
	}
}

func TestRangeNotAppliedToLiterals(t *testing.T) {
	r := NewReasonerOver(store.New())
	r.Add(rdf.T(iri("p"), rdf.RDFSRange, rdf.XSDString))
	r.Add(rdf.T(iri("a"), iri("p"), rdf.NewString("text")))
	for _, tr := range r.Store().Triples() {
		if tr.Subject.Kind() == rdf.KindLiteral {
			t.Errorf("literal subject inferred: %s", tr)
		}
	}
}

func TestInverseOf(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:contains owl:inverseOf ex:within .
ex:zone ex:contains ex:site .
ex:house ex:within ex:city .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("site"), iri("within"), iri("zone"))) {
		t.Error("inverse (forward decl) failed")
	}
	if !m.Has(rdf.T(iri("city"), iri("contains"), iri("house"))) {
		t.Error("inverse (reverse decl) failed")
	}
}

func TestSymmetricAndTransitive(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:adjacentTo a owl:SymmetricProperty .
ex:upstreamOf a owl:TransitiveProperty .
ex:a ex:adjacentTo ex:b .
ex:x ex:upstreamOf ex:y .
ex:y ex:upstreamOf ex:z .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("b"), iri("adjacentTo"), iri("a"))) {
		t.Error("symmetric failed")
	}
	if !m.Has(rdf.T(iri("x"), iri("upstreamOf"), iri("z"))) {
		t.Error("transitive failed")
	}
}

func TestTransitiveChainLong(t *testing.T) {
	r := NewReasonerOver(store.New())
	r.Add(rdf.T(iri("flows"), rdf.RDFType, rdf.OWLTransitiveProperty))
	const n = 30
	for i := 0; i < n; i++ {
		r.Add(rdf.T(iri(fmt.Sprintf("n%d", i)), iri("flows"), iri(fmt.Sprintf("n%d", i+1))))
	}
	if !r.Store().Has(rdf.T(iri("n0"), iri("flows"), iri(fmt.Sprintf("n%d", n)))) {
		t.Error("long transitive chain incomplete")
	}
	// Closure of a linear chain of n+1 nodes has n(n+1)/2 edges.
	want := (n + 1) * n / 2
	if got := r.Store().Count(nil, iri("flows"), nil); got != want {
		t.Errorf("closure edges = %d, want %d", got, want)
	}
}

func TestEquivalentClassAndProperty(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:Stream owl:equivalentClass ex:Watercourse .
ex:name owl:equivalentProperty ex:title .
ex:s a ex:Stream .
ex:s ex:name "Trinity" .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("s"), rdf.RDFType, iri("Watercourse"))) {
		t.Error("equivalentClass failed")
	}
	if !m.Has(rdf.T(iri("s"), iri("title"), rdf.NewString("Trinity"))) {
		t.Error("equivalentProperty failed")
	}
}

func TestSameAsSubstitution(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:ntx owl:sameAs ex:northTexasEnergy .
ex:ntx ex:risk 4 .
ex:auditor ex:inspected ex:northTexasEnergy .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("northTexasEnergy"), iri("risk"), rdf.NewInteger(4))) {
		t.Error("sameAs subject substitution failed")
	}
	if !m.Has(rdf.T(iri("auditor"), iri("inspected"), iri("ntx"))) {
		t.Error("sameAs object substitution failed")
	}
	if !m.Has(rdf.T(iri("northTexasEnergy"), rdf.OWLSameAs, iri("ntx"))) {
		t.Error("sameAs symmetry failed")
	}
}

func TestSameAsTransitivity(t *testing.T) {
	r := NewReasonerOver(store.New())
	r.Add(rdf.T(iri("a"), rdf.OWLSameAs, iri("b")))
	r.Add(rdf.T(iri("b"), rdf.OWLSameAs, iri("c")))
	r.Add(rdf.T(iri("a"), iri("p"), rdf.NewString("v")))
	if !r.Store().Has(rdf.T(iri("c"), iri("p"), rdf.NewString("v"))) {
		t.Error("sameAs transitivity + substitution failed")
	}
}

func TestFunctionalProperties(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:hasCRS a owl:FunctionalProperty .
ex:hasSiteId a owl:InverseFunctionalProperty .
ex:f ex:hasCRS ex:crs1 .
ex:f ex:hasCRS ex:crs2 .
ex:s1 ex:hasSiteId ex:id42 .
ex:s2 ex:hasSiteId ex:id42 .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("crs1"), rdf.OWLSameAs, iri("crs2"))) &&
		!m.Has(rdf.T(iri("crs2"), rdf.OWLSameAs, iri("crs1"))) {
		t.Error("functional property sameAs failed")
	}
	if !m.Has(rdf.T(iri("s1"), rdf.OWLSameAs, iri("s2"))) &&
		!m.Has(rdf.T(iri("s2"), rdf.OWLSameAs, iri("s1"))) {
		t.Error("inverse functional property sameAs failed")
	}
}

func TestHasValueBothDirections(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:TexasSite owl:onProperty ex:state ; owl:hasValue ex:TX .
ex:s1 ex:state ex:TX .
ex:s2 a ex:TexasSite .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("s1"), rdf.RDFType, iri("TexasSite"))) {
		t.Error("hasValue entry direction failed")
	}
	if !m.Has(rdf.T(iri("s2"), iri("state"), iri("TX"))) {
		t.Error("hasValue value direction failed")
	}
}

func TestSomeValuesFrom(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:RiskySite owl:onProperty ex:stores ; owl:someValuesFrom ex:HazardousChemical .
ex:sulfuric a ex:HazardousChemical .
ex:plant ex:stores ex:sulfuric .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("plant"), rdf.RDFType, iri("RiskySite"))) {
		t.Error("someValuesFrom failed")
	}
}

func TestSomeValuesFromLateType(t *testing.T) {
	r := NewReasonerOver(store.New())
	r.Add(rdf.T(iri("RiskySite"), rdf.OWLOnProperty, iri("stores")))
	r.Add(rdf.T(iri("RiskySite"), rdf.OWLSomeValuesFrom, iri("Hazardous")))
	r.Add(rdf.T(iri("plant"), iri("stores"), iri("sulfuric")))
	// chemical classified *after* the link exists
	r.Add(rdf.T(iri("sulfuric"), rdf.RDFType, iri("Hazardous")))
	if !r.Store().Has(rdf.T(iri("plant"), rdf.RDFType, iri("RiskySite"))) {
		t.Error("someValuesFrom with late typing failed")
	}
}

func TestAllValuesFrom(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:PureWaterBody owl:onProperty ex:feeds ; owl:allValuesFrom ex:CleanStream .
ex:spring a ex:PureWaterBody .
ex:spring ex:feeds ex:brook .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("brook"), rdf.RDFType, iri("CleanStream"))) {
		t.Error("allValuesFrom failed")
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	doc := `
@prefix ex: <http://e/> .
ex:Creek rdfs:subClassOf ex:Stream .
ex:flowsInto a owl:TransitiveProperty .
ex:contains owl:inverseOf ex:within .
ex:a a ex:Creek . ex:a ex:flowsInto ex:b . ex:b ex:flowsInto ex:c .
ex:zone ex:contains ex:a .
`
	st := loadTurtle(t, doc)
	batch, _ := Materialize(st)

	inc := NewReasonerOver(store.New())
	for _, tr := range st.Triples() {
		inc.Add(tr)
	}
	if batch.Len() != inc.Store().Len() {
		t.Fatalf("batch %d != incremental %d\nbatch:\n%s\ninc:\n%s",
			batch.Len(), inc.Store().Len(), batch, inc.Store())
	}
	for _, tr := range batch.Triples() {
		if !inc.Store().Has(tr) {
			t.Errorf("incremental missing %s", tr)
		}
	}
}

func TestHelperAccessors(t *testing.T) {
	r := NewReasonerOver(store.New())
	r.Add(rdf.T(iri("Creek"), rdf.RDFSSubClassOf, iri("Stream")))
	r.Add(rdf.T(iri("p1"), rdf.RDFSSubPropertyOf, iri("p2")))
	r.Add(rdf.T(iri("x"), rdf.RDFType, iri("Creek")))
	if !r.IsSubClassOf(iri("Creek"), iri("Stream")) || !r.IsSubClassOf(iri("Creek"), iri("Creek")) {
		t.Error("IsSubClassOf failed")
	}
	if r.IsSubClassOf(iri("Stream"), iri("Creek")) {
		t.Error("IsSubClassOf inverted")
	}
	if !r.IsSubPropertyOf(iri("p1"), iri("p2")) {
		t.Error("IsSubPropertyOf failed")
	}
	if !r.Store().Has(rdf.T(iri("x"), rdf.RDFType, iri("Stream"))) {
		t.Error("inferred type missing")
	}
	if got := r.TypesOf(iri("x")); len(got) != 2 {
		t.Errorf("TypesOf = %v", got)
	}
	if got := r.Store().Subjects(rdf.RDFSSubClassOf, iri("Stream")); len(got) != 1 {
		t.Errorf("subclasses = %v", got)
	}
}

func TestCheckCardinalityList3(t *testing.T) {
	// List 3: EnvelopeWithTimePeriod requires exactly 2 time positions.
	doc := `
@prefix ex: <http://e/> .
grdf:EnvelopeWithTimePeriodRestr owl:onProperty temporal:hasTimePosition ;
    owl:cardinality 2 .
ex:good a grdf:EnvelopeWithTimePeriodRestr ;
    temporal:hasTimePosition ex:t1, ex:t2 .
ex:bad a grdf:EnvelopeWithTimePeriodRestr ;
    temporal:hasTimePosition ex:t1 .
`
	m, _ := Materialize(loadTurtle(t, doc))
	vs := Check(m)
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	if vs[0].Kind != "cardinality" || !vs[0].Subject.Equal(iri("bad")) {
		t.Errorf("violation = %+v", vs[0])
	}
}

func TestCheckFaceList5(t *testing.T) {
	// List 5: Face has maxCardinality 2 on hasTopoSolid, max 1 on hasSurface,
	// min 1 on hasEdge. Model the three restrictions as three restriction
	// classes that Face members carry.
	doc := `
@prefix ex: <http://e/> .
ex:FaceSolidRestr owl:onProperty grdf:hasTopoSolid ; owl:maxCardinality 2 .
ex:FaceSurfaceRestr owl:onProperty grdf:hasSurface ; owl:maxCardinality 1 .
ex:FaceEdgeRestr owl:onProperty grdf:hasEdge ; owl:minCardinality 1 .
grdf:Face rdfs:subClassOf ex:FaceSolidRestr, ex:FaceSurfaceRestr, ex:FaceEdgeRestr .

ex:okFace a grdf:Face ;
    grdf:hasTopoSolid ex:s1, ex:s2 ;
    grdf:hasSurface ex:surf1 ;
    grdf:hasEdge ex:e1 .
ex:badFace a grdf:Face ;
    grdf:hasTopoSolid ex:s1, ex:s2, ex:s3 ;
    grdf:hasSurface ex:surf1, ex:surf2 .
`
	m, _ := Materialize(loadTurtle(t, doc))
	vs := Check(m)
	kinds := map[string]int{}
	for _, v := range vs {
		if !v.Subject.Equal(iri("badFace")) {
			t.Errorf("unexpected subject: %+v", v)
		}
		kinds[v.Kind]++
	}
	if kinds["max-cardinality"] != 2 || kinds["min-cardinality"] != 1 {
		t.Errorf("violations = %v", vs)
	}
}

func TestCheckDisjointAndSameDifferent(t *testing.T) {
	doc := `
@prefix ex: <http://e/> .
ex:Water owl:disjointWith ex:Land .
ex:thing a ex:Water, ex:Land .
ex:a owl:sameAs ex:b .
ex:a owl:differentFrom ex:b .
`
	m, _ := Materialize(loadTurtle(t, doc))
	vs := Check(m)
	kinds := map[string]int{}
	for _, v := range vs {
		kinds[v.Kind]++
	}
	if kinds["disjoint"] == 0 {
		t.Error("disjoint violation missed")
	}
	if kinds["same-different"] == 0 {
		t.Error("same-different violation missed")
	}
	if vs[0].String() == "" {
		t.Error("violation String empty")
	}
}

func TestCheckCleanStore(t *testing.T) {
	m, _ := Materialize(loadTurtle(t, `
@prefix ex: <http://e/> .
ex:a ex:p ex:b .
`))
	if vs := Check(m); len(vs) != 0 {
		t.Errorf("violations on clean store: %v", vs)
	}
}

func TestAddDuplicateAndInvalid(t *testing.T) {
	r := NewReasonerOver(store.New())
	tr := rdf.T(iri("a"), iri("p"), iri("b"))
	if !r.Add(tr) || r.Add(tr) {
		t.Error("Add dup semantics wrong")
	}
	if r.Add(rdf.Triple{Subject: rdf.NewString("x"), Predicate: iri("p"), Object: iri("b")}) {
		t.Error("invalid triple accepted")
	}
	if r.Stats().Asserted != 1 {
		t.Errorf("Asserted = %d", r.Stats().Asserted)
	}
}

func TestUnionOf(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:WaterBody owl:unionOf ( ex:Lake ex:Stream ) .
ex:tahoe a ex:Lake .
ex:trinity a ex:Stream .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("Lake"), rdf.RDFSSubClassOf, iri("WaterBody"))) {
		t.Error("union member not subclass")
	}
	if !m.Has(rdf.T(iri("tahoe"), rdf.RDFType, iri("WaterBody"))) {
		t.Error("lake instance not typed WaterBody")
	}
	if !m.Has(rdf.T(iri("trinity"), rdf.RDFType, iri("WaterBody"))) {
		t.Error("stream instance not typed WaterBody")
	}
}

func TestIntersectionOf(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:RiskyRiversideSite owl:intersectionOf ( ex:ChemSite ex:Riverside ) .
ex:a a ex:ChemSite .
ex:a a ex:Riverside .
ex:b a ex:ChemSite .
`)
	m, _ := Materialize(st)
	if !m.Has(rdf.T(iri("RiskyRiversideSite"), rdf.RDFSSubClassOf, iri("ChemSite"))) {
		t.Error("intersection not subclass of member")
	}
	if !m.Has(rdf.T(iri("a"), rdf.RDFType, iri("RiskyRiversideSite"))) {
		t.Error("individual with all member types not classified")
	}
	if m.Has(rdf.T(iri("b"), rdf.RDFType, iri("RiskyRiversideSite"))) {
		t.Error("individual with partial member types classified")
	}
}

func TestIntersectionOfLateTyping(t *testing.T) {
	r := NewReasonerOver(store.New())
	g := rdf.NewGraph()
	head := g.List([]rdf.Term{iri("A"), iri("B")})
	r.AddGraph(g)
	r.Add(rdf.T(iri("Both"), rdf.OWLIntersectionOf, head))
	r.Add(rdf.T(iri("x"), rdf.RDFType, iri("A")))
	if r.Store().Has(rdf.T(iri("x"), rdf.RDFType, iri("Both"))) {
		t.Error("classified with only one member type")
	}
	r.Add(rdf.T(iri("x"), rdf.RDFType, iri("B")))
	if !r.Store().Has(rdf.T(iri("x"), rdf.RDFType, iri("Both"))) {
		t.Error("late second member type did not classify")
	}
}

// Property: materialization is idempotent — running the reasoner over an
// already-materialized store derives nothing new.
func TestMaterializeIdempotent(t *testing.T) {
	docs := []string{
		`
@prefix ex: <http://e/> .
ex:Creek rdfs:subClassOf ex:Stream .
ex:flowsInto a owl:TransitiveProperty .
ex:contains owl:inverseOf ex:within .
ex:a a ex:Creek . ex:a ex:flowsInto ex:b . ex:b ex:flowsInto ex:c .
ex:zone ex:contains ex:a .
ex:a owl:sameAs ex:aPrime .
`,
		`
@prefix ex: <http://e/> .
ex:WaterBody owl:unionOf ( ex:Lake ex:Stream ) .
ex:Both owl:intersectionOf ( ex:A ex:B ) .
ex:x a ex:A , ex:B .
ex:t a ex:Lake .
`,
	}
	for i, doc := range docs {
		st := loadTurtle(t, doc)
		once, stats1 := Materialize(st)
		twice, stats2 := Materialize(once)
		if stats2.Inferred != 0 {
			t.Errorf("doc %d: second materialization inferred %d (first %d)",
				i, stats2.Inferred, stats1.Inferred)
		}
		if twice.Len() != once.Len() {
			t.Errorf("doc %d: %d -> %d triples", i, once.Len(), twice.Len())
		}
	}
}

// Property: materialization is monotone — the closure contains every
// asserted triple.
func TestMaterializeMonotone(t *testing.T) {
	st := loadTurtle(t, `
@prefix ex: <http://e/> .
ex:Creek rdfs:subClassOf ex:Stream .
ex:a a ex:Creek .
ex:a ex:p "v" .
`)
	m, _ := Materialize(st)
	for _, tr := range st.Triples() {
		if !m.Has(tr) {
			t.Errorf("closure lost asserted triple %s", tr)
		}
	}
}

func TestExplain(t *testing.T) {
	r := NewReasonerOver(store.New())
	r.Add(rdf.T(iri("Creek"), rdf.RDFSSubClassOf, iri("Stream")))
	r.Add(rdf.T(iri("Stream"), rdf.RDFSSubClassOf, iri("Feature")))
	r.Add(rdf.T(iri("rowlett"), rdf.RDFType, iri("Creek")))

	// asserted triple: empty chain, ok
	chain, ok := r.Explain(rdf.T(iri("rowlett"), rdf.RDFType, iri("Creek")))
	if !ok || len(chain) != 0 {
		t.Errorf("asserted explain = %v, %t", chain, ok)
	}
	// inferred: rowlett type Feature (via rdfs9/rdfs11)
	chain, ok = r.Explain(rdf.T(iri("rowlett"), rdf.RDFType, iri("Feature")))
	if !ok || len(chain) == 0 {
		t.Fatalf("inferred explain = %v, %t", chain, ok)
	}
	for _, d := range chain {
		if d.Rule == "" {
			t.Errorf("unnamed rule in %+v", d)
		}
		if !d.Trigger.Valid() {
			t.Errorf("invalid trigger in %+v", d)
		}
	}
	// the chain must terminate at an asserted triple: its last trigger is
	// asserted (not in provenance)
	last := chain[len(chain)-1].Trigger
	if c2, ok2 := r.Explain(last); !ok2 || len(c2) != 0 {
		t.Errorf("chain does not end at an asserted triple: %s (%v)", last, c2)
	}
	// absent triple
	if _, ok := r.Explain(rdf.T(iri("x"), rdf.RDFType, iri("Nope"))); ok {
		t.Error("explained absent triple")
	}
}

func TestExplainRuleNames(t *testing.T) {
	r := NewReasonerOver(store.New())
	r.Add(rdf.T(iri("contains"), rdf.OWLInverseOf, iri("within")))
	r.Add(rdf.T(iri("zone"), iri("contains"), iri("site")))
	chain, ok := r.Explain(rdf.T(iri("site"), iri("within"), iri("zone")))
	if !ok || len(chain) == 0 {
		t.Fatalf("explain = %v, %t", chain, ok)
	}
	names := map[string]bool{}
	for _, d := range chain {
		names[d.Rule] = true
	}
	if !names["inverse"] && !names["property-semantics"] {
		t.Errorf("rule names = %v", names)
	}
}
