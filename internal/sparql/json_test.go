package sparql

import (
	"bytes"
	"testing"
)

// TestCellsAreMadeOnce: an answer written from Cells is the answer written
// without them; the first answer makes the cells of the dictionary terms it
// projects, a repeat makes none, and a BIND value gets no cell.
func TestCellsAreMadeOnce(t *testing.T) {
	e := fixture(t)
	const q = `PREFIX ex: <http://e/>
SELECT ?s ?n ?double WHERE { ?s ex:name ?n OPTIONAL { ?s ex:risk ?r } BIND(?r * 2 AS ?double) }`
	write := func() []byte {
		t.Helper()
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := write()
	c := &Cells{}
	e.SetCells(c)
	if got := write(); !bytes.Equal(got, want) {
		t.Fatalf("with cells:\n%s\nwithout:\n%s", got, want)
	}
	made := len(c.arena)
	if made == 0 || !bytes.Contains(c.arena, []byte(`"\"Collin Chemicals\""`)) || bytes.Contains(c.arena, []byte(`\"8\"`)) {
		t.Fatalf("cells after one answer: %s", c.arena)
	}
	if got := write(); !bytes.Equal(got, want) || len(c.arena) != made {
		t.Errorf("a repeat answer wrote %s and grew the cells from %d to %d bytes", got, made, len(c.arena))
	}
}
