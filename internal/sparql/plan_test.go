package sparql

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/store"
)

const planNS = "http://plan.example/"

func planIRI(s string) rdf.IRI { return rdf.IRI(planNS + s) }

// planFixture builds a store with controlled cardinalities: nSites subjects
// typed Site each linked to one record, of which nCoded records carry the
// code literal "X9".
func planFixture(nSites, nCoded int) *store.Store {
	st := store.New()
	for i := 0; i < nSites; i++ {
		site := planIRI(fmt.Sprintf("site%d", i))
		rec := planIRI(fmt.Sprintf("rec%d", i))
		st.Add(rdf.T(site, rdf.RDFType, planIRI("Site")))
		st.Add(rdf.T(site, planIRI("hasRecord"), rec))
		if i < nCoded {
			st.Add(rdf.T(rec, planIRI("code"), rdf.NewString("X9")))
		}
	}
	return st
}

func TestPlanBGPSelectivityOrdering(t *testing.T) {
	st := planFixture(100, 5)
	patterns := []TriplePattern{
		{Subject: Variable("s"), Predicate: Link{IRI: rdf.RDFType}, Object: planIRI("Site")},
		{Subject: Variable("s"), Predicate: Link{IRI: planIRI("hasRecord")}, Object: Variable("r")},
		{Subject: Variable("r"), Predicate: Link{IRI: planIRI("code")}, Object: rdf.NewString("X9")},
	}
	plan := PlanBGP(st, patterns, nil)
	if !plan.Reordered {
		t.Fatal("expected plan to reorder: code pattern is far more selective")
	}
	// The code pattern (5 matches) must run first; the hasRecord chain
	// pattern shares ?r so it beats the disconnected type pattern.
	if got := []int{plan.Steps[0].Index, plan.Steps[1].Index, plan.Steps[2].Index}; got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("plan order = %v, want [2 1 0]\n%s", got, plan.Explain())
	}
}

func TestPlanBGPMissingConstantRunsFirst(t *testing.T) {
	st := planFixture(50, 5)
	patterns := []TriplePattern{
		{Subject: Variable("s"), Predicate: Link{IRI: rdf.RDFType}, Object: planIRI("Site")},
		{Subject: Variable("s"), Predicate: Link{IRI: planIRI("neverSeen")}, Object: Variable("x")},
	}
	plan := PlanBGP(st, patterns, nil)
	if plan.Steps[0].Index != 1 || plan.Steps[0].Estimate != 0 {
		t.Fatalf("uninterned-constant pattern should be scheduled first with estimate 0:\n%s", plan.Explain())
	}
}

func TestPlanBGPTiesKeepTextualOrder(t *testing.T) {
	st := planFixture(10, 10)
	// Two patterns with identical shape and cardinality must stay in order.
	patterns := []TriplePattern{
		{Subject: Variable("a"), Predicate: Link{IRI: planIRI("hasRecord")}, Object: Variable("b")},
		{Subject: Variable("b"), Predicate: Link{IRI: planIRI("hasRecord")}, Object: Variable("c")},
	}
	plan := PlanBGP(st, patterns, nil)
	if plan.Steps[0].Index != 0 {
		t.Fatalf("tie should keep textual order:\n%s", plan.Explain())
	}
}

func TestPlanBGPBoundVarsShrinkEstimates(t *testing.T) {
	st := planFixture(100, 5)
	tp := TriplePattern{Subject: Variable("s"), Predicate: Link{IRI: planIRI("hasRecord")}, Object: Variable("r")}
	free := estimatePattern(st, tp, nil)
	bound := estimatePattern(st, tp, map[Variable]struct{}{"s": {}})
	if bound >= free {
		t.Fatalf("bound-subject estimate %.1f should be below free estimate %.1f", bound, free)
	}
}

func TestExplainRendersPlan(t *testing.T) {
	st := planFixture(20, 2)
	e := NewEngine(st)
	out, err := e.Explain(fmt.Sprintf(
		`SELECT ?s WHERE { ?s a <%sSite> . ?s <%shasRecord> ?r . ?r <%scode> "X9" }`,
		planNS, planNS, planNS))
	if err != nil {
		t.Fatal(err)
	}
	if want := "BGP plan (reordered):"; !contains(out, want) {
		t.Fatalf("Explain output missing %q:\n%s", want, out)
	}
	if !contains(out, "[pattern 2") {
		t.Fatalf("Explain output should schedule the code pattern first:\n%s", out)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEvalCtxPreCanceled(t *testing.T) {
	st := planFixture(10, 2)
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryCtx(ctx, fmt.Sprintf(`SELECT ?s WHERE { ?s a <%sSite> }`, planNS))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCancellationMidBGPReturnsPromptly(t *testing.T) {
	// A store big enough that the deliberately Cartesian query below runs
	// for a long time under the static order; cancellation must cut it
	// short between join steps.
	st := store.New()
	for i := 0; i < 800; i++ {
		st.Add(rdf.T(planIRI(fmt.Sprintf("a%d", i)), planIRI("p"), planIRI(fmt.Sprintf("b%d", i))))
		st.Add(rdf.T(planIRI(fmt.Sprintf("c%d", i)), planIRI("q"), planIRI(fmt.Sprintf("d%d", i))))
	}
	e := NewEngine(st).SetPlanning(false)
	q := fmt.Sprintf(`SELECT ?a ?c ?e WHERE { ?a <%sp> ?b . ?c <%sq> ?d . ?e <%sp> ?f }`,
		planNS, planNS, planNS)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.QueryCtx(ctx, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s, want prompt return", elapsed)
	}
}

func TestEvalCtxDeadline(t *testing.T) {
	st := planFixture(10, 2)
	e := NewEngine(st)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := e.QueryCtx(ctx, fmt.Sprintf(`SELECT ?s WHERE { ?s a <%sSite> }`, planNS))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestZeroLengthPathBindsUninternedTerm pins the dictionary-encoding edge
// case: a zero-length closure relates a term to itself even when the term
// was never stored, so the binding cannot live in ID space.
func TestZeroLengthPathBindsUninternedTerm(t *testing.T) {
	st := planFixture(3, 1)
	e := NewEngine(st)
	ghost := planIRI("neverStored")
	res, err := e.Query(fmt.Sprintf(`PREFIX pl: <%s> SELECT ?x WHERE { <%s> pl:p* ?x }`, planNS, string(ghost)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings()) != 1 || !res.Bindings()[0][Variable("x")].Equal(ghost) {
		t.Fatalf("zero-length path over unstored subject = %v, want [{x: %s}]", res.Bindings(), ghost)
	}
}

func TestRepeatedVariableInPattern(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(planIRI("n1"), planIRI("loop"), planIRI("n1")))
	st.Add(rdf.T(planIRI("n1"), planIRI("loop"), planIRI("n2")))
	e := NewEngine(st)
	res, err := e.Query(fmt.Sprintf(`SELECT ?x WHERE { ?x <%sloop> ?x }`, planNS))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bindings()) != 1 || !res.Bindings()[0][Variable("x")].Equal(planIRI("n1")) {
		t.Fatalf("self-loop query = %v, want exactly n1", res.Bindings())
	}
}
