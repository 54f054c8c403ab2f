package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/rdf"
	"repro/internal/turtle"
)

// The answer oracle. Every expected result derives from generator ground
// truth (world.sites, world.streams, world.truth) and the List 8 matrix
// below — never from a previous run and never from the gsacs package — so a
// faster but leakier access filter fails the benchmark instead of winning it.

// grant is what one role may see of one class: every property, or a list.
type grant struct {
	all   bool
	props []rdf.IRI
}

func (g grant) allows(p rdf.IRI) bool { return g.all || slices.Contains(g.props, p) }

// list8 is the Sec. 7.1 role matrix as the paper states it: main repair sees
// the hydrology layer and only the extent of chemical sites; hazmat adds site
// names and chemical *names*; emergency response sees everything.
var list8 = map[rdf.IRI]map[rdf.IRI]grant{
	datagen.RoleMainRepair: {
		datagen.HydroStream: {all: true},
		datagen.ChemSite:    {props: []rdf.IRI{grdf.BoundedBy}},
	},
	datagen.RoleHazmat: {
		datagen.HydroStream: {all: true},
		datagen.ChemSite:    {props: []rdf.IRI{grdf.BoundedBy, datagen.HasSiteName, datagen.HasChemicalInfo}},
		datagen.ChemInfo:    {props: []rdf.IRI{rdf.AppNS + "chemical"}},
		datagen.ChemRecord:  {props: []rdf.IRI{datagen.HasChemName}},
	},
	datagen.RoleEmergency: {
		datagen.HydroStream: {all: true},
		datagen.ChemSite:    {all: true},
		datagen.ChemInfo:    {all: true},
		datagen.ChemRecord:  {all: true},
	},
}

// sees reports whether role may read property p of instances of class.
func sees(role, class, p rdf.IRI) bool {
	g, ok := list8[role][class]
	return ok && g.allows(p)
}

// seesAll reports whether role may read every (class, property) pair a
// query joins over; a query touching one hidden pair returns no rows.
func seesAll(role rdf.IRI, pairs ...[2]rdf.IRI) bool {
	for _, cp := range pairs {
		if !sees(role, cp[0], cp[1]) {
			return false
		}
	}
	return true
}

var (
	aggNeeds = [][2]rdf.IRI{
		{datagen.ChemSite, datagen.HasSiteName}, {datagen.ChemSite, datagen.HasChemicalInfo},
		{datagen.ChemInfo, rdf.AppNS + "chemical"}, {datagen.ChemRecord, datagen.HasChemName},
	}
	listNeeds    = [][2]rdf.IRI{{datagen.ChemSite, datagen.HasSiteName}}
	chemsNeeds   = aggNeeds[1:]
	byIDNeeds    = [][2]rdf.IRI{{datagen.ChemSite, datagen.HasSiteID}, {datagen.ChemSite, datagen.HasSiteName}}
	spatialNeeds = [][2]rdf.IRI{{datagen.ChemSite, grdf.BoundedBy}, {datagen.HydroStream, grdf.HasGeometry}}
)

// structural reports whether node is a subsidiary GRDF description node (an
// envelope or geometry) that travels with the property pointing at it.
func (w *world) structural(node rdf.Term) bool {
	if node.Kind() != rdf.KindIRI {
		return false
	}
	types := w.truth.Objects(node, rdf.RDFType)
	for _, ty := range types {
		if iri, ok := ty.(rdf.IRI); !ok || iri.Namespace() != grdf.NS {
			return false
		}
	}
	return len(types) > 0
}

// describe returns the triples role may see of subject: its types, its
// permitted properties, and the structural nodes those point at.
func (w *world) describe(role rdf.IRI, subject rdf.Term) []rdf.Triple {
	var class rdf.IRI
	for _, ty := range w.truth.Objects(subject, rdf.RDFType) {
		if _, ok := list8[role][ty.(rdf.IRI)]; ok {
			class = ty.(rdf.IRI)
		}
	}
	if class == "" {
		return nil
	}
	var out []rdf.Triple
	var whole func(node rdf.Term)
	whole = func(node rdf.Term) {
		for _, t := range w.truth.Match(node, nil, nil) {
			out = append(out, t)
			if w.structural(t.Object) {
				whole(t.Object)
			}
		}
	}
	for _, t := range w.truth.Match(subject, nil, nil) {
		p := t.Predicate.(rdf.IRI)
		if p != rdf.RDFType && !sees(role, class, p) {
			continue
		}
		out = append(out, t)
		if w.structural(t.Object) {
			whole(t.Object)
		}
	}
	return out
}

// stable renders t for comparison, replacing the values the write ops move
// (a site's name and phone) by a marker when they are ones the site may
// legitimately carry, so a read racing a rename still compares equal while
// any other value still differs.
func (w *world) stable(site int, t rdf.Triple) string {
	if lit, ok := t.Object.(rdf.Literal); ok {
		switch {
		case t.Predicate.Equal(datagen.HasSiteName) && w.validName(site, lit.Value),
			t.Predicate.Equal(datagen.HasContactPhone) && strings.HasPrefix(lit.Value, w.phones[site]):
			return t.Subject.String() + " " + t.Predicate.String() + " <current> ."
		}
	}
	return t.String()
}

// expectedView is the whole layered view of role, sorted.
func (w *world) expectedView(role rdf.IRI) []string {
	var out []string
	for _, s := range w.truth.Subjects(rdf.RDFType, nil) {
		for _, t := range w.describe(role, s) {
			out = append(out, t.String())
		}
	}
	return sortedUnique(out)
}

func sortedUnique(lines []string) []string {
	slices.Sort(lines)
	return slices.Compact(lines)
}

// diffLines summarizes how got departs from want (both sorted).
func diffLines(got, want []string) string {
	have := make(map[string]bool, len(got))
	for _, l := range got {
		have[l] = true
	}
	var missing, extra []string
	for _, l := range want {
		if !have[l] {
			missing = append(missing, l)
		}
		delete(have, l)
	}
	for l := range have {
		extra = append(extra, l)
	}
	sort.Strings(extra)
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	show := func(ls []string) string {
		if len(ls) > 3 {
			return fmt.Sprintf("%s … (%d)", strings.Join(ls[:3], " | "), len(ls))
		}
		return strings.Join(ls, " | ")
	}
	return fmt.Sprintf("missing [%s] extra [%s]", show(missing), show(extra))
}

// hiddenNames lists the local names of application properties and classes
// role may never see in any response body.
func hiddenNames(role rdf.IRI) []string {
	var out []string
	for class, props := range classProps {
		g, visible := list8[role][class]
		if !visible {
			out = append(out, class.LocalName())
		}
		for _, p := range props {
			if !visible || !g.allows(p) {
				out = append(out, p.LocalName())
			}
		}
	}
	sort.Strings(out)
	return out
}

// classProps is the application vocabulary the generator writes per class.
var classProps = map[rdf.IRI][]rdf.IRI{
	datagen.ChemSite: {datagen.HasSiteName, datagen.HasSiteID, datagen.HasContactName,
		datagen.HasContactPhone, datagen.HasChemicalInfo, hasNote},
	datagen.ChemInfo:   {rdf.AppNS + "chemical"},
	datagen.ChemRecord: {datagen.HasChemName, datagen.HasChemCode, datagen.HasQuantityKg},
}

// countName counts occurrences of an IRI local name in a Turtle or
// N-Triples body, in either its prefixed (app:name) or full (…#name) form.
func countName(body []byte, local string) int {
	n := 0
	needle := []byte(local)
	for i := 0; ; {
		j := bytes.Index(body[i:], needle)
		if j < 0 {
			return n
		}
		j += i
		end := j + len(needle)
		before := j > 0 && (body[j-1] == ':' || body[j-1] == '#')
		after := end == len(body) || !isNameByte(body[end])
		if before && after {
			n++
		}
		i = end
	}
}

func isNameByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

type queryResponse struct {
	Results []map[string]string `json:"results"`
}

type mutateResponse struct {
	Applied int `json:"applied"`
	Changed int `json:"changed"`
}

// literal strips the N-Triples quoting from a plain string term.
func literal(term string) string {
	if len(term) >= 2 && term[0] == '"' && term[len(term)-1] == '"' {
		return term[1 : len(term)-1]
	}
	return term
}

// validName reports whether name is one the site has carried: its generated
// name or any rename ("<name> rev N") a writer may have acknowledged since.
func (w *world) validName(site int, name string) bool {
	orig := w.sites[site].Name
	return name == orig || strings.HasPrefix(name, orig+" rev ")
}

// check compares one response with the oracle. A nil error means the answer
// is exactly what ground truth and List 8 predict.
func (w *world) check(o *op, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	switch o.kind {
	case opWrite:
		var r mutateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Applied != len(o.muts) || r.Changed != len(o.muts) {
			return fmt.Errorf("applied %d changed %d, want %d", r.Applied, r.Changed, len(o.muts))
		}
		return nil
	case opView:
		return w.checkView(o.role, body)
	case opPointResource:
		g, err := turtle.ParseString(string(body))
		if err != nil {
			return err
		}
		got := make([]string, 0, g.Len())
		for _, t := range g.Triples() {
			got = append(got, w.stable(o.site, t))
		}
		var want []string
		for _, t := range w.describe(o.role, w.sites[o.site].IRI) {
			want = append(want, w.stable(o.site, t))
		}
		if d := diffLines(sortedUnique(got), sortedUnique(want)); d != "" {
			return fmt.Errorf("%s", d)
		}
		return nil
	}
	var r queryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	return w.checkRows(o, r.Results)
}

// checkView scans a /v1/view body without parsing it (a 30k-triple Turtle
// parse per op would make the generator the bottleneck): no hidden name may
// appear, and every site contributes exactly one extent. Exact equality with
// expectedView is asserted in-process by the traced run and the tests.
func (w *world) checkView(role rdf.IRI, body []byte) error {
	for _, name := range hiddenNames(role) {
		if n := countName(body, name); n > 0 {
			return fmt.Errorf("view leaks %q %d times", name, n)
		}
	}
	if n := countName(body, grdf.BoundedBy.LocalName()); n != len(w.sites) {
		return fmt.Errorf("view holds %d site extents, want %d", n, len(w.sites))
	}
	return nil
}

func (w *world) checkRows(o *op, rows []map[string]string) error {
	switch o.kind {
	case opAgg:
		if !seesAll(o.role, aggNeeds...) {
			return wantRows(rows, 0)
		}
		if err := wantRows(rows, w.chemRows); err != nil {
			return err
		}
		// Each (site, chemical) pair exactly once, with a valid name.
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			i, ok := w.siteIndex[r["site"]]
			if !ok || !w.validName(i, literal(r["name"])) {
				return fmt.Errorf("unexpected row %v", r)
			}
			chem := literal(r["chem"])
			if !slices.Contains(w.sites[i].Chemical, chem) || seen[r["site"]+chem] {
				return fmt.Errorf("unexpected row %v", r)
			}
			seen[r["site"]+chem] = true
		}
	case opList:
		if !seesAll(o.role, listNeeds...) {
			return wantRows(rows, 0)
		}
		if err := wantRows(rows, len(w.sites)); err != nil {
			return err
		}
		seen := make([]bool, len(w.sites))
		for _, r := range rows {
			i, ok := w.siteIndex[r["site"]]
			if !ok || seen[i] || !w.validName(i, literal(r["name"])) {
				return fmt.Errorf("unexpected row %v", r)
			}
			seen[i] = true
		}
	case opSpatial:
		var want []string
		if seesAll(o.role, spatialNeeds...) {
			want = w.near[o.stream]
		}
		got := make([]string, len(rows))
		for i, r := range rows {
			got[i] = r["s"]
		}
		if d := diffLines(sortedUnique(got), want); d != "" || len(got) != len(want) {
			return fmt.Errorf("%d rows, want %d: %s", len(got), len(want), d)
		}
	case opPointChems:
		var want []string
		if seesAll(o.role, chemsNeeds...) {
			want = append(want, w.sites[o.site].Chemical...)
			sort.Strings(want)
		}
		got := make([]string, len(rows))
		for i, r := range rows {
			got[i] = literal(r["chem"])
		}
		if d := diffLines(sortedUnique(got), want); d != "" || len(got) != len(want) {
			return fmt.Errorf("%d rows, want %d: %s", len(got), len(want), d)
		}
	case opPointByID:
		if !seesAll(o.role, byIDNeeds...) {
			return wantRows(rows, 0)
		}
		if err := wantRows(rows, 1); err != nil {
			return err
		}
		if rows[0]["site"] != w.sites[o.site].IRI.String() || !w.validName(o.site, literal(rows[0]["name"])) {
			return fmt.Errorf("unexpected row %v", rows[0])
		}
	}
	return nil
}

func wantRows(rows []map[string]string, n int) error {
	if len(rows) != n {
		return fmt.Errorf("%d rows, want %d", len(rows), n)
	}
	return nil
}
