package owl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
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

// TestScenarioClosurePinned pins the reasoner's closure of the scenario:
// 12,630 triples whose digest is the one the per-triple-commit reasoner
// produced, the same whether the input arrives as one batch or one triple at
// a time. Every inferred triple's explanation ends at an asserted triple, and
// every trigger on the way is in the closure.
func TestScenarioClosurePinned(t *testing.T) {
	const (
		wantLen    = 12630
		wantDigest = "5f296ab7b9b8619e10a995a7d137cd450399058e47e510fcfd693e84d7708766"
	)
	in := scenarioInput(t)
	batch := owl.NewReasoner()
	batch.AddAll(in)
	closure := batch.Store().Triples()
	if got := closureDigest(closure); len(closure) != wantLen || got != wantDigest {
		t.Fatalf("batch closure: %d triples, digest %s; want %d, %s", len(closure), got, wantLen, wantDigest)
	}

	one := owl.NewReasoner()
	for _, tr := range in {
		one.Add(tr)
	}
	if got := closureDigest(one.Store().Triples()); got != wantDigest {
		t.Fatalf("one-at-a-time closure: %d triples, digest %s; want %s", one.Store().Len(), got, wantDigest)
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
			if !batch.Entails(d.Trigger) {
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

// BenchmarkMaterialize materializes the scenario closure from scratch.
func BenchmarkMaterialize(b *testing.B) {
	in := scenarioInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owl.NewReasoner().AddAll(in)
	}
}
