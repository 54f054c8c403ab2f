// Command grdf-query runs SPARQL queries (with the grdf: spatial filter
// functions) over GRDF data files.
//
// Usage:
//
//	grdf-query -data hydro.ttl -data chem.ttl -q 'SELECT ?s WHERE { ?s a app:ChemSite }'
//	grdf-query -data world.ttl -reason -q 'SELECT ?f WHERE { ?f a grdf:Feature }'
//	echo 'ASK { ... }' | grdf-query -data world.ttl
//
// Data formats are inferred from the extension: .ttl, .rdf/.xml, .nt.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/grdf"
	"repro/internal/ntriples"
	"repro/internal/owl"
	"repro/internal/rdfxml"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

type dataFiles []string

func (d *dataFiles) String() string     { return strings.Join(*d, ",") }
func (d *dataFiles) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var files dataFiles
	flag.Var(&files, "data", "data file (.ttl/.rdf/.xml/.nt); repeatable")
	query := flag.String("q", "", "SPARQL query; when empty the query is read from stdin")
	reason := flag.Bool("reason", false, "materialize OWL inferences (loads the GRDF ontology) before querying")
	validate := flag.Bool("validate", false, "validate the data against the GRDF ontology before querying")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "grdf-query")
		return
	}

	if err := run(files, *query, *reason, *validate); err != nil {
		fmt.Fprintf(os.Stderr, "grdf-query: %v\n", err)
		os.Exit(1)
	}
}

func run(files []string, query string, reason, validate bool) error {
	ds := store.NewDataset()
	st := ds.Default()
	for _, f := range files {
		if err := loadFile(ds, f); err != nil {
			return err
		}
	}
	if validate {
		rep := grdf.Validate(st)
		for _, issue := range rep.Issues {
			fmt.Fprintf(os.Stderr, "validate: %s\n", issue)
		}
		fmt.Fprintf(os.Stderr, "validate: %d geometries checked, %d errors\n",
			rep.Checked, len(rep.Errors()))
		if !rep.Valid() {
			return fmt.Errorf("validation failed")
		}
	}
	if query == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		query = string(data)
	}
	if strings.TrimSpace(query) == "" {
		return fmt.Errorf("no query given (use -q or stdin)")
	}

	if reason {
		st.AddGraph(grdf.Ontology())
		materialized, stats := owl.Materialize(st)
		fmt.Fprintf(os.Stderr, "reasoning: %d asserted, %d inferred\n",
			stats.Asserted, stats.Inferred)
		st = materialized
	}

	// Dataset-backed engine so GRAPH patterns over .nq named graphs work;
	// spatial filters resolve against the union of all graphs.
	eng := sparql.NewDatasetEngine(ds)
	if reason {
		eng = sparql.NewEngine(st)
	}
	grdf.RegisterSpatialFuncs(eng, ds.Union())
	res, err := eng.Query(query)
	if err != nil {
		return err
	}
	return printResult(os.Stdout, res)
}

func loadFile(ds *store.Dataset, path string) error {
	st := ds.Default()
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch ext := filepath.Ext(path); ext {
	case ".nq":
		sub, err := ntriples.ParseQuadsString(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		st.AddAll(sub.Default().Triples())
		for _, name := range sub.GraphNames() {
			src, _ := sub.Graph(name, false)
			dst, _ := ds.Graph(name, true)
			dst.AddAll(src.Triples())
		}
		return nil
	case ".ttl":
		g, err := turtle.ParseString(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		st.AddGraph(g)
	case ".rdf", ".xml", ".owl":
		g, err := rdfxml.ParseString(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		st.AddGraph(g)
	case ".nt":
		g, err := ntriples.ParseString(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		st.AddGraph(g)
	default:
		return fmt.Errorf("%s: unknown extension %q", path, ext)
	}
	return nil
}

func printResult(w io.Writer, res *sparql.Result) error {
	switch res.Kind {
	case sparql.Ask:
		_, err := fmt.Fprintf(w, "%t\n", res.Bool)
		return err
	case sparql.Construct, sparql.Describe:
		return turtle.Write(w, res.Graph, nil)
	default:
		header := make([]string, len(res.Vars))
		for i, v := range res.Vars {
			header[i] = "?" + string(v)
		}
		fmt.Fprintln(w, strings.Join(header, "\t"))
		for _, b := range res.Bindings() {
			cells := make([]string, len(res.Vars))
			for i, v := range res.Vars {
				if t, ok := b[v]; ok {
					cells[i] = t.String()
				}
			}
			fmt.Fprintln(w, strings.Join(cells, "\t"))
		}
		fmt.Fprintf(w, "(%d rows)\n", res.Len())
		return nil
	}
}
