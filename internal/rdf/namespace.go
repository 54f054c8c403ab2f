package rdf

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Prefixes maps prefix labels (without the trailing colon) to namespace IRIs.
// It is used by the Turtle/RDF-XML codecs and the SPARQL parser to expand
// prefixed names, and by the serializers to compact IRIs.
type Prefixes struct {
	mu      sync.RWMutex
	forward map[string]string // prefix -> namespace
	reverse map[string]string // namespace -> prefix
	// base, when set, is the table this one extends (see Extend): read for
	// every prefix this table does not bind itself, and never written.
	base *Prefixes
}

// NewPrefixes returns an empty prefix table.
func NewPrefixes() *Prefixes {
	return &Prefixes{
		forward: make(map[string]string),
		reverse: make(map[string]string),
	}
}

// CommonPrefixes returns a table preloaded with the namespaces every GRDF
// document uses (rdf, rdfs, owl, xsd, grdf, temporal, seconto, gml, app).
func CommonPrefixes() *Prefixes {
	p := NewPrefixes()
	p.Bind("rdf", RDFNS)
	p.Bind("rdfs", RDFSNS)
	p.Bind("owl", OWLNS)
	p.Bind("xsd", XSDNS)
	p.Bind("grdf", GRDFNS)
	p.Bind("temporal", GRDFTemporalNS)
	p.Bind("seconto", SecOntoNS)
	p.Bind("gml", GMLNS+"#")
	p.Bind("app", AppNS)
	return p
}

// Extend returns an empty table over p: it resolves every binding of p, and
// its own Binds shadow p's without writing p. A table that many readers
// share, read-only, is extended once per reader that may bind more.
func (p *Prefixes) Extend() *Prefixes { return &Prefixes{base: p} }

// Bind associates prefix with namespace, replacing any earlier binding.
func (p *Prefixes) Bind(prefix, namespace string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.forward == nil {
		p.forward, p.reverse = map[string]string{}, map[string]string{}
	}
	if old, ok := p.forward[prefix]; ok {
		delete(p.reverse, old)
	}
	p.forward[prefix] = namespace
	p.reverse[namespace] = prefix
}

// Expand resolves a prefixed name ("grdf:Feature") to a full IRI. It returns
// an error for unknown prefixes or names without a colon.
func (p *Prefixes) Expand(qname string) (IRI, error) {
	idx := strings.Index(qname, ":")
	if idx < 0 {
		return "", fmt.Errorf("rdf: %q is not a prefixed name", qname)
	}
	prefix, local := qname[:idx], qname[idx+1:]
	ns, ok := p.Namespace(prefix)
	if !ok {
		return "", fmt.Errorf("rdf: unknown prefix %q in %q", prefix, qname)
	}
	return IRI(ns + local), nil
}

// Namespace returns the namespace bound to prefix, if any.
func (p *Prefixes) Namespace(prefix string) (string, bool) {
	p.mu.RLock()
	ns, ok := p.forward[prefix]
	p.mu.RUnlock()
	if !ok && p.base != nil {
		return p.base.Namespace(prefix)
	}
	return ns, ok
}

// bindings returns every binding of the table, its own over its base's.
func (p *Prefixes) bindings() map[string]string {
	out := map[string]string{}
	if p.base != nil {
		out = p.base.bindings()
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	for k, v := range p.forward {
		out[k] = v
	}
	return out
}

// Compact renders an IRI as a prefixed name when a binding covers it,
// otherwise returns the angle-bracketed absolute form. The table's own
// bindings are read before its base's, and a base binding whose prefix the
// table rebinds is skipped.
func (p *Prefixes) Compact(iri IRI) string {
	s := string(iri)
	best, bestPrefix := "", ""
	for t := p; t != nil; t = t.base {
		t.mu.RLock()
		for ns, prefix := range t.reverse {
			if len(ns) > len(best) && strings.HasPrefix(s, ns) && validLocalPart(s[len(ns):]) && !p.shadows(t, prefix) {
				best, bestPrefix = ns, prefix
			}
		}
		t.mu.RUnlock()
	}
	if best == "" {
		return iri.String()
	}
	return bestPrefix + ":" + s[len(best):]
}

// shadows reports whether a table of p's chain below t binds prefix itself.
func (p *Prefixes) shadows(t *Prefixes, prefix string) bool {
	for u := p; u != t; u = u.base {
		u.mu.RLock()
		_, ok := u.forward[prefix]
		u.mu.RUnlock()
		if ok {
			return true
		}
	}
	return false
}

// Each calls fn for every binding in deterministic (prefix-sorted) order.
func (p *Prefixes) Each(fn func(prefix, namespace string)) {
	vals := p.bindings()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, vals[k])
	}
}

// Clone returns an independent copy of the table.
func (p *Prefixes) Clone() *Prefixes {
	q := NewPrefixes()
	p.Each(func(prefix, ns string) { q.Bind(prefix, ns) })
	return q
}

// validLocalPart reports whether s can appear as the local part of a Turtle
// prefixed name without escaping. We accept letters, digits, '_', '-', '.'
// (not leading/trailing dot).
func validLocalPart(s string) bool {
	if s == "" {
		return true
	}
	if s[0] == '.' || s[len(s)-1] == '.' {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}
