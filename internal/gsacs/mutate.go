package gsacs

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// ErrNotFound is returned (wrapped) by MutateCtx when the triple an update
// op replaces is not in the store.
var ErrNotFound = errors.New("triple not present")

// Write-path enforcement. The paper's action individuals include Modify and
// Delete alongside View; MutateCtx — the engine's only write entry point —
// runs the same decision procedure before mutating the store, so write
// policies compose with the property-level condition language.

// ErrDenied is returned (wrapped) when a mutation is not authorized.
type ErrDenied struct {
	Subject  rdf.IRI
	Action   rdf.IRI
	Resource rdf.Term
	Property rdf.IRI
}

func (e *ErrDenied) Error() string {
	if e.Property != "" {
		return fmt.Sprintf("gsacs: %s denied %s on %s (property %s)",
			e.Subject.LocalName(), e.Action.LocalName(), e.Resource, e.Property.LocalName())
	}
	return fmt.Sprintf("gsacs: %s denied %s on %s",
		e.Subject.LocalName(), e.Action.LocalName(), e.Resource)
}

// authorizeTriple checks, as judged by j, that subject may perform action on
// the triple's resource and property, and notes the decision on rec.
func (e *Engine) authorizeTriple(rec *obs.Request, j *judge, subject, action rdf.IRI, t rdf.Triple) error {
	acc := e.decideAs(j, subject, action, t.Subject)
	noteDecision(rec, j, action, t.Subject, acc)
	if !acc.Allowed {
		return &ErrDenied{Subject: subject, Action: action, Resource: t.Subject}
	}
	pred, ok := t.Predicate.(rdf.IRI)
	if !ok {
		return fmt.Errorf("gsacs: predicate %s is not an IRI", t.Predicate)
	}
	// rdf:type writes count as structural modifications: they require full
	// access, never just a property grant.
	if pred == rdf.RDFType && !acc.Full || pred != rdf.RDFType && !acc.PropertyVisible(pred, j.reasoner) {
		return &ErrDenied{Subject: subject, Action: action, Resource: t.Subject, Property: pred}
	}
	return nil
}

// MutationOp is one element of an atomic batch mutation: an insert or delete
// of one or more triples, or an update carrying exactly [old, new]. It is the
// engine-level unit behind POST /v1/mutate.
type MutationOp struct {
	Kind    store.OpKind
	Triples []rdf.Triple
}

// BatchOpError attributes a batch-mutation failure to the op that caused it.
// Unwrap exposes the cause so errors.Is/As see ErrDenied, ErrNotFound and
// store.ErrCommitHook through it.
type BatchOpError struct {
	Index int
	Err   error
}

func (e *BatchOpError) Error() string { return fmt.Sprintf("op %d: %v", e.Index, e.Err) }
func (e *BatchOpError) Unwrap() error { return e.Err }

// MutateCtx applies a batch of mutations atomically on behalf of subject:
// every op is authorized and validated up front, then the whole batch lands
// as one store generation and one WAL group-commit entry — or not at all.
// The returned slice holds the number of triples each op effectively changed.
//
// Updates use the store's MustExist replace, so a missing old triple aborts
// the batch with ErrNotFound instead of silently no-opping. Any failure is
// wrapped in *BatchOpError naming the offending op. The decisions go on the
// request's record in ctx, for the audit trail (see noteDecision).
func (e *Engine) MutateCtx(ctx context.Context, subject rdf.IRI, muts []MutationOp) ([]int, error) {
	ctx, sp := obs.StartSpan(ctx, "gsacs.mutate")
	defer sp.End()
	sp.SetAttr("role", subject.LocalName())
	sp.SetAttr("ops", fmt.Sprintf("%d", len(muts)))
	if len(muts) == 0 {
		return nil, nil
	}
	// One judge for the batch: every op is authorized against the same
	// version of the data under the same reasoner.
	j := e.current()
	rec := obs.RequestOf(ctx)
	ops := make([]store.Op, len(muts))
	for i, m := range muts {
		op, err := e.authorizeOp(ctx, rec, j, subject, m)
		if err != nil {
			berr := &BatchOpError{Index: i, Err: err}
			sp.Fail(berr)
			return nil, berr
		}
		ops[i] = op
	}
	ns, err := e.data.ApplyBatch(ops)
	if err != nil {
		var be *store.BatchError
		switch {
		case errors.As(err, &be):
			cause := be.Err
			if errors.Is(cause, store.ErrAbsent) {
				cause = fmt.Errorf("gsacs: %w: %s", ErrNotFound, ops[be.Index].Triples[0])
			}
			err = &BatchOpError{Index: be.Index, Err: cause}
		case errors.Is(err, store.ErrCommitHook):
			err = fmt.Errorf("gsacs: batch not persisted: %w", err)
		}
		sp.Fail(err)
		return nil, err
	}
	return ns, nil
}

// authorizeOp runs the per-triple decision procedure for one batch op and
// shapes it into the store.Op the batch will carry. An insert and both sides
// of an update need Modify, a delete needs Delete; what an op writes — an
// insert's triples, an update's new one — must be valid.
func (e *Engine) authorizeOp(ctx context.Context, rec *obs.Request, j *judge, subject rdf.IRI, m MutationOp) (store.Op, error) {
	op := store.Op{Kind: m.Kind, Triples: m.Triples, Ctx: ctx, MustExist: m.Kind == store.OpReplace}
	action := seconto.ActionModify
	switch {
	case m.Kind != store.OpAdd && m.Kind != store.OpRemove && m.Kind != store.OpReplace:
		return op, fmt.Errorf("gsacs: unsupported mutation kind %d", m.Kind)
	case m.Kind == store.OpReplace && len(m.Triples) != 2:
		return op, fmt.Errorf("gsacs: update op needs exactly [old, new], got %d triples", len(m.Triples))
	case len(m.Triples) == 0:
		return op, fmt.Errorf("gsacs: %s op carries no triples", m.Kind)
	case m.Kind == store.OpRemove:
		action = seconto.ActionDelete
	}
	for i, t := range m.Triples {
		if (m.Kind == store.OpAdd || i == 1 && m.Kind == store.OpReplace) && !t.Valid() {
			return op, fmt.Errorf("gsacs: invalid triple %v", t)
		}
		if err := e.authorizeTriple(rec, j, subject, action, t); err != nil {
			return op, err
		}
	}
	return op, nil
}
