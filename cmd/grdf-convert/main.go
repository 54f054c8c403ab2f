// Command grdf-convert translates between GML and GRDF serializations — the
// paper's interoperability story made into a tool.
//
// Usage:
//
//	grdf-convert -from gml -to turtle  < data.gml  > data.ttl
//	grdf-convert -from turtle -to gml  < data.ttl  > data.gml
//	grdf-convert -from rdfxml -to ntriples -in data.rdf -out data.nt
//
// Formats: gml, turtle, rdfxml, ntriples.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/gml"
	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/rdfxml"
	"repro/internal/store"
	"repro/internal/turtle"
)

func main() {
	from := flag.String("from", "gml", "input format: gml, turtle, rdfxml, ntriples")
	to := flag.String("to", "turtle", "output format: gml, turtle, rdfxml, ntriples")
	in := flag.String("in", "-", "input file ('-' = stdin)")
	out := flag.String("out", "-", "output file ('-' = stdout)")
	ns := flag.String("ns", rdf.AppNS, "namespace for feature IRIs minted from GML ids")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "grdf-convert")
		return
	}

	if err := run(*from, *to, *in, *out, *ns); err != nil {
		fmt.Fprintf(os.Stderr, "grdf-convert: %v\n", err)
		os.Exit(1)
	}
}

func run(from, to, in, out, ns string) error {
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	// Load everything into a triple store; GML goes through the converter.
	st := store.New()
	switch from {
	case "gml":
		col, err := gml.Parse(r)
		if err != nil {
			return err
		}
		if _, err := gml.ToGRDF(st, col, ns); err != nil {
			return err
		}
	case "turtle", "ntriples":
		data, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		parse := turtle.ParseString
		if from == "ntriples" {
			parse = ntriples.ParseString
		}
		g, err := parse(string(data))
		if err != nil {
			return err
		}
		st.AddGraph(g)
	case "rdfxml":
		g, err := rdfxml.Parse(r)
		if err != nil {
			return err
		}
		st.AddGraph(g)
	default:
		return fmt.Errorf("unknown input format %q", from)
	}

	switch to {
	case "gml":
		col, err := gml.FromGRDF(st, "")
		if err != nil {
			return err
		}
		return gml.Write(w, col)
	case "turtle":
		return turtle.Write(w, st.Graph(), nil)
	case "rdfxml":
		return rdfxml.Write(w, st.Graph(), nil)
	case "ntriples":
		return ntriples.Write(w, st.Graph())
	default:
		return fmt.Errorf("unknown output format %q", to)
	}
}
