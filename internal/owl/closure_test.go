package owl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// closureDigest is the SHA-256 of the closure's N-Triples lines, sorted and
// joined by newlines, with blank nodes renamed _:c0, _:c1, … in the order
// their labels were minted: rdf.NewBlankNode numbers them process-wide, so
// the raw labels depend on what ran before.
func closureDigest(ts []rdf.Triple) string {
	var blanks []rdf.BlankNode
	for _, t := range ts {
		for _, term := range []rdf.Term{t.Subject, t.Object} {
			if b, ok := term.(rdf.BlankNode); ok && !slices.Contains(blanks, b) {
				blanks = append(blanks, b)
			}
		}
	}
	minted := func(b rdf.BlankNode) int {
		n, _ := strconv.Atoi(strings.TrimPrefix(string(b), "b"))
		return n
	}
	slices.SortFunc(blanks, func(x, y rdf.BlankNode) int { return minted(x) - minted(y) })
	canon := func(term rdf.Term) rdf.Term {
		if b, ok := term.(rdf.BlankNode); ok {
			return rdf.BlankNode(fmt.Sprintf("c%d", slices.Index(blanks, b)))
		}
		return term
	}
	lines := make([]string, len(ts))
	for i, t := range ts {
		lines[i] = rdf.T(canon(t.Subject), t.Predicate, canon(t.Object)).String()
	}
	slices.Sort(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// scenarioInput is the seed-7 contamination scenario at 450 sites plus the
// GRDF and security ontologies: what a server materializes at boot.
func scenarioInput(tb testing.TB) []rdf.Triple {
	tb.Helper()
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 450})
	ts := append(grdf.Ontology().Triples(), seconto.Ontology().Triples()...)
	return append(ts, sc.Merged.Triples()...)
}

// The scenario closure (scenarioInput's) as the per-triple-commit reasoner
// produced it.
const (
	scenarioClosureLen    = 12630
	scenarioClosureDigest = "5f296ab7b9b8619e10a995a7d137cd450399058e47e510fcfd693e84d7708766"
)

// TestScenarioClosurePinned pins the reasoner's closure of the scenario:
// 12,630 triples whose digest is the one the per-triple-commit reasoner
// produced, the same whether the input arrives as one batch or one triple at
// a time. Every inferred triple's explanation ends at an asserted triple, and
// every trigger on the way is in the closure.
func TestScenarioClosurePinned(t *testing.T) {
	in := scenarioInput(t)
	batch := owl.NewReasonerOver(store.New())
	batch.AddAll(in)
	closure := batch.Store().Triples()
	if got := closureDigest(closure); len(closure) != scenarioClosureLen || got != scenarioClosureDigest {
		t.Fatalf("batch closure: %d triples, digest %s; want %d, %s", len(closure), got, scenarioClosureLen, scenarioClosureDigest)
	}

	one := owl.NewReasonerOver(store.New())
	for _, tr := range in {
		one.Add(tr)
	}
	if got := closureDigest(one.Store().Triples()); got != scenarioClosureDigest {
		t.Fatalf("one-at-a-time closure: %d triples, digest %s; want %s", one.Store().Len(), got, scenarioClosureDigest)
	}

	asserted := map[rdf.Triple]bool{}
	for _, tr := range in {
		asserted[tr] = true
	}
	inferred := 0
	for _, tr := range closure {
		if asserted[tr] {
			continue
		}
		inferred++
		chain, ok := batch.Explain(tr)
		if !ok || len(chain) == 0 {
			t.Fatalf("inferred %v: explanation %v, %v", tr, chain, ok)
		}
		for _, d := range chain {
			if !batch.Store().Has(d.Trigger) {
				t.Fatalf("inferred %v: trigger %v (%s) is not in the closure", tr, d.Trigger, d.Rule)
			}
		}
		if last := chain[len(chain)-1].Trigger; !asserted[last] {
			t.Fatalf("inferred %v: explanation ends at %v, which was not asserted", tr, last)
		}
	}
	if inferred != batch.Stats().Inferred {
		t.Fatalf("%d closure triples are not asserted, the reasoner counts %d inferred", inferred, batch.Stats().Inferred)
	}
}

// TestServerPathSharesTheData: the server materializes over the data store's
// own version (gsacs.NewOWLReasoner, the path MaterializeReasoner takes). It
// gives the pinned scenario closure and statistics, interns into the data's
// dictionary instead of a copy of it, leaves the data store's version alone,
// and from then on the two stores are independent.
func TestServerPathSharesTheData(t *testing.T) {
	data := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 450}).Merged
	before, gen, n := data.View(), data.Generation(), data.Len()
	r := gsacs.NewOWLReasoner(data, grdf.Ontology(), seconto.Ontology())

	closure := r.Store().Triples()
	if got := closureDigest(closure); len(closure) != scenarioClosureLen || got != scenarioClosureDigest {
		t.Fatalf("closure: %d triples, digest %s; want %d, %s", len(closure), got, scenarioClosureLen, scenarioClosureDigest)
	}
	if got, want := r.Stats(), (owl.Stats{Asserted: 10269, Inferred: 2361, Iterations: 3}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if r.Store().Dict() != data.Dict() {
		t.Fatal("the reasoner interns into a dictionary of its own")
	}
	if !data.View().Same(before) || data.Generation() != gen || data.Len() != n {
		t.Fatalf("materializing moved the data store: generation %d → %d, %d → %d triples",
			gen, data.Generation(), n, data.Len())
	}

	toData := rdf.T(rdf.IRI("http://example.org/x"), rdf.RDFType, grdf.Feature)
	toReasoner := rdf.T(rdf.IRI("http://example.org/y"), rdf.RDFType, grdf.Feature)
	data.Add(toData)
	r.Add(toReasoner)
	if r.Store().Has(toData) || data.Has(toReasoner) {
		t.Fatalf("a write to one store shows in the other: reasoner has %v: %t, data has %v: %t",
			toData, r.Store().Has(toData), toReasoner, data.Has(toReasoner))
	}
}

// TestClosureIndependentOfArrivalOrder: a closure is a function of the
// triples, not of the order they arrive in. Each case is small enough to add
// one triple at a time in many random orders; every order must give the
// batch closure, and the batch closure must hold the case's entailment. The
// cases are the late arrivals a rule has to look back for: a property
// characteristic declared after its assertions, a restriction's schema after
// its data, and a type asserted after the owl:sameAs it must be copied
// across.
func TestClosureIndependentOfArrivalOrder(t *testing.T) {
	e := func(s string) rdf.IRI { return rdf.IRI("http://e/" + s) }
	ty := rdf.RDFType
	cases := []struct {
		name string
		in   []rdf.Triple
		want rdf.Triple
	}{
		{"functional", []rdf.Triple{
			rdf.T(e("x"), e("p"), e("a")), rdf.T(e("x"), e("p"), e("b")),
			rdf.T(e("p"), ty, rdf.OWLFunctionalProperty),
		}, rdf.T(e("a"), rdf.OWLSameAs, e("b"))},
		{"inverse-functional", []rdf.Triple{
			rdf.T(e("a"), e("p"), e("v")), rdf.T(e("b"), e("p"), e("v")),
			rdf.T(e("p"), ty, rdf.OWLInverseFunctional),
		}, rdf.T(e("a"), rdf.OWLSameAs, e("b"))},
		{"has-value", []rdf.Triple{
			rdf.T(e("x"), ty, e("R")),
			rdf.T(e("R"), rdf.OWLOnProperty, e("p")), rdf.T(e("R"), rdf.OWLHasValue, e("v")),
		}, rdf.T(e("x"), e("p"), e("v"))},
		{"some-values-from", []rdf.Triple{
			rdf.T(e("x"), e("p"), e("y")), rdf.T(e("y"), ty, e("D")),
			rdf.T(e("R"), rdf.OWLOnProperty, e("p")), rdf.T(e("R"), rdf.OWLSomeValuesFrom, e("D")),
		}, rdf.T(e("x"), ty, e("R"))},
		{"all-values-from", []rdf.Triple{
			rdf.T(e("x"), ty, e("R")), rdf.T(e("x"), e("p"), e("y")),
			rdf.T(e("R"), rdf.OWLOnProperty, e("p")), rdf.T(e("R"), rdf.OWLAllValuesFrom, e("D")),
		}, rdf.T(e("y"), ty, e("D"))},
		{"same-as-then-type", []rdf.Triple{
			rdf.T(e("a"), rdf.OWLSameAs, e("b")), rdf.T(e("a"), ty, e("C")),
			rdf.T(e("C"), rdf.RDFSSubClassOf, e("D")),
		}, rdf.T(e("b"), ty, e("D"))},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batch := owl.NewReasonerOver(store.New())
			batch.AddAll(c.in)
			want := batch.Store().String()
			if !batch.Store().Has(c.want) {
				t.Fatalf("batch closure lacks %v:\n%s", c.want, want)
			}
			for i := 0; i < 30; i++ {
				order := slices.Clone(c.in)
				rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
				one := owl.NewReasonerOver(store.New())
				for _, tr := range order {
					one.Add(tr)
				}
				if got := one.Store().String(); got != want {
					t.Fatalf("arrival order %v gives %d triples, the batch %d:\n%s\nwant:\n%s",
						order, one.Store().Len(), batch.Store().Len(), got, want)
				}
			}
		})
	}
}

// BenchmarkMaterialize materializes the scenario closure from scratch: as
// one batch into an empty reasoner, and the way a server does it, over the
// data store's own version with the ontologies added on top.
func BenchmarkMaterialize(b *testing.B) {
	b.Run("batch", func(b *testing.B) {
		in := scenarioInput(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			owl.NewReasonerOver(store.New()).AddAll(in)
		}
	})
	b.Run("over-data", func(b *testing.B) {
		data := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 450}).Merged
		onto := append(grdf.Ontology().Triples(), seconto.Ontology().Triples()...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			owl.NewReasonerOver(data).AddAll(onto)
		}
	})
}
