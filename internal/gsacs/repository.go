package gsacs

import (
	"sort"
	"sync"

	"repro/internal/rdf"
)

// OntoRepository is Fig. 3's "database of ontologies needed to perform the
// reasoning. For instance, GRDF would reside in this repository." It is the
// one place ontologies enter a server: every materialization reasons over
// Graphs, and /v1/ontologies lists Names.
type OntoRepository struct {
	mu    sync.RWMutex
	ontos map[string]*rdf.Graph
}

// NewOntoRepository returns an empty repository.
func NewOntoRepository() *OntoRepository {
	return &OntoRepository{ontos: make(map[string]*rdf.Graph)}
}

// Register stores an ontology under a name, replacing any previous version.
func (r *OntoRepository) Register(name string, g *rdf.Graph) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ontos[name] = g
}

// Names lists the registered ontology names, sorted.
func (r *OntoRepository) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.ontos))
	for n := range r.ontos {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Graphs returns the registered ontologies in name order, the order the
// reasoner interns them in.
func (r *OntoRepository) Graphs() []*rdf.Graph {
	names := r.Names()
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*rdf.Graph, 0, len(names))
	for _, n := range names {
		out = append(out, r.ontos[n])
	}
	return out
}
